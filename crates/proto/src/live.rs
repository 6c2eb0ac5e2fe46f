//! A live, threaded runtime for the match-making protocols.
//!
//! Every node is an OS thread with a `std::sync::mpsc` mailbox hosting one
//! [`NodeMachine`] — the same protocol rules the simulator's
//! [`crate::shotgun`] engine hosts, re-run on real concurrency: the
//! paper's m(P,Q) ≥ 1 rendezvous invariant is a property of the post/query
//! sets, not of the scheduler, and the conformance suite
//! (`tests/live_workload_equivalence`) differential-tests the two hosts
//! against each other under full workload load. Messages between distinct
//! nodes count as one message pass each (the paper's complete-network
//! model, [`mm_sim::CostModel::Uniform`]). What this module owns is the
//! hosting: mailboxes, accounting, the crash flag, the control plane, and
//! the table of who is waiting for which operation's verdict.
//!
//! # Accounting parity
//!
//! [`LiveNet`] mirrors the simulator's [`Metrics`] semantics exactly so
//! that reports from both runtimes are comparable field by field:
//!
//! * a point-to-point send counts one `send`, plus one `message_pass`
//!   when source ≠ destination (self-messages are free);
//! * a multicast counts one `send` + one pass per *remote* member — a
//!   sender that is a member of its own target set delivers locally for
//!   free;
//! * driver commands (post, locate, request) model the simulator's free
//!   `inject` — no pass, but the delivery at the executing node counts
//!   toward `delivered`/`node_load`/events;
//! * a message arriving at a crashed node counts `dropped` (the passes
//!   spent getting there stay spent), exactly like [`mm_sim::Sim`];
//! * control-plane traffic (crash/restore/barriers/shutdown) is the live
//!   analogue of the simulator's external state changes and is never
//!   counted.
//!
//! # Determinism under churn
//!
//! Real threads cannot replay the simulator's tick ordering, so the
//! driver API is *synchronous*: each operation returns only when its
//! outcome is decided. For operations whose target set intersects the
//! crashed set the outcome "unresolved" is forced deterministically — the
//! driver quiesces the in-flight fan-out with mailbox barriers (FIFO
//! channels make a barrier ack prove everything enqueued earlier was
//! processed) and then tells the client to give up, playing the role of
//! the simulator's client timeout without wall-clock flakiness.
//!
//! # Driver commands and completion
//!
//! A post or withdrawal is the machine's own `DoPost`/`DoUnpost` command,
//! mailed to the server's node like any protocol message; a barrier there
//! proves its fan-out was enqueued and a barrier at the targets that it
//! was processed. A locate or request carries the channel its caller
//! waits on. The machine says when an operation is decided by returning
//! [`Settled`]; the driver's forced give-up is the same value mailed as
//! `Finish`, so both close the operation and answer the waiter through
//! one `report`.

use crate::fault::FaultProfile;
use crate::messages::ProtoMsg;
use crate::node::{NodeMachine, Outbox, RequestOutcome, Settled};
use mm_core::Port;
use mm_sim::{Metrics, TargetSet};
use mm_topo::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// The verdict of one live locate: the protocol's one outcome type. The
/// threads keep no clock, so every `elapsed` reads 0.
pub use crate::node::LocateOutcome as LiveLocateOutcome;

/// How long a blocking driver call waits before declaring the runtime
/// wedged. Every wait in the lock-step protocol is guaranteed to finish
/// (live nodes always answer, dead ones are never waited on), so this
/// bound only trips on a genuine deadlock bug — and then we want a loud
/// panic, not a silent divergence from the simulator.
const WEDGE_TIMEOUT: Duration = Duration::from_secs(60);

/// While blocked on an operation that looked all-live at issue time, the
/// driver periodically re-checks the crash set: a *concurrent* crash (from
/// another driver thread) can silence a target after the check, and the
/// operation must then be force-classified instead of waiting forever.
const RACE_RECHECK: Duration = Duration::from_millis(50);

/// What travels through a node's mailbox: a counted delivery, or
/// control-plane traffic that [`NodeThread::run`] handles itself.
#[derive(Debug)]
enum LiveMsg {
    Deliver(Delivery),
    // --- control plane (never counted; works on crashed nodes too) ---
    Control {
        change: Change,
        ack: Sender<()>,
    },
    /// Force-completes a pending operation — a locate with its partial
    /// state, a request with `None` (no reply): the driver-side stand-in
    /// for the simulator's client timeout.
    Finish(Settled),
    Shutdown,
}

/// A delivery counted like simulator traffic: what the node machine sees.
#[derive(Debug)]
enum Delivery {
    /// Protocol traffic between nodes, and the driver's
    /// `DoPost`/`DoUnpost` commands.
    Proto(ProtoMsg),
    // --- driver commands whose caller waits for the verdict ---
    Locate {
        port: Port,
        locate_id: u64,
        targets: TargetSet,
        done: Sender<LiveLocateOutcome>,
    },
    Request {
        port: Port,
        addr: NodeId,
        body: u64,
        request_id: u64,
        done: Sender<Option<RequestOutcome>>,
    },
}

/// An external state change — the live analogue of the simulator's
/// `crash`/`restore`/`node_mut` calls: free, acknowledged, and effective
/// even on a crashed node.
#[derive(Debug, Clone, Copy)]
enum Change {
    Serve {
        port: Port,
        on: bool,
    },
    Crash,
    Restore,
    ClearCache,
    SetFault(FaultProfile),
    /// No change: the ack alone proves the mailbox drained up to here.
    Barrier,
}

/// Shared counters, snapshotted into an [`mm_sim::Metrics`].
#[derive(Debug)]
struct LiveCounters {
    passes: AtomicU64,
    sends: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    crashes: AtomicU64,
    events: AtomicU64,
    node_load: Box<[AtomicU64]>,
}

impl LiveCounters {
    fn new(n: usize) -> Self {
        LiveCounters {
            passes: AtomicU64::new(0),
            sends: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            events: AtomicU64::new(0),
            node_load: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// A node's sending side: the peers' mailboxes plus the pass accounting.
struct Net {
    me: NodeId,
    peers: Vec<Sender<LiveMsg>>,
    counters: Arc<LiveCounters>,
}

impl Outbox for Net {
    /// One `send`, one pass unless to self — the accounting of
    /// [`mm_sim::Sim`]'s `route` under the uniform model.
    fn send(&mut self, to: NodeId, msg: ProtoMsg) {
        self.counters.sends.fetch_add(1, Ordering::Relaxed);
        if to != self.me {
            self.counters.passes.fetch_add(1, Ordering::Relaxed);
        }
        // a dropped peer just loses the message, like a crashed node
        let _ = self.peers[to.index()].send(LiveMsg::Deliver(Delivery::Proto(msg)));
    }

    /// Remote members cost a send + a pass each, a sender that is its own
    /// target delivers locally for free — the accounting of the
    /// simulator's `route_multicast` under uniform cost.
    fn multicast(&mut self, to: TargetSet, msg: ProtoMsg) {
        for t in to.iter() {
            if t != self.me {
                self.counters.sends.fetch_add(1, Ordering::Relaxed);
                self.counters.passes.fetch_add(1, Ordering::Relaxed);
            }
            let _ = self.peers[t.index()].send(LiveMsg::Deliver(Delivery::Proto(msg.clone())));
        }
    }
}

/// The thread host of one [`NodeMachine`].
struct NodeThread {
    rx: Receiver<LiveMsg>,
    net: Net,
    crashed: bool,
    machine: NodeMachine,
    /// Who is waiting for which open operation's verdict.
    locates: HashMap<u64, Sender<LiveLocateOutcome>>,
    requests: HashMap<u64, Sender<Option<RequestOutcome>>>,
}

impl NodeThread {
    fn run(mut self) {
        while let Ok(msg) = self.rx.recv() {
            match msg {
                LiveMsg::Shutdown => break,
                LiveMsg::Control { change, ack } => {
                    match change {
                        Change::Serve { port, on: true } => self.machine.serve(port),
                        Change::Serve { port, on: false } => self.machine.unserve(port),
                        Change::Crash => self.crashed = true,
                        Change::Restore => self.crashed = false,
                        Change::ClearCache => self.machine.clear_cache(),
                        Change::SetFault(profile) => self.machine.set_fault(profile),
                        Change::Barrier => {}
                    }
                    let _ = ack.send(());
                }
                LiveMsg::Finish(settled) => self.report(settled),
                LiveMsg::Deliver(delivery) => self.on_message(delivery),
            }
        }
    }

    /// Closes the operation and tells its waiter how it stands: a locate
    /// complete, or partial when the driver gave up on it; a request's
    /// answer, or `None` when no reply ever came.
    fn report(&mut self, settled: Settled) {
        match settled {
            Settled::Locate(id) => {
                if let (Some(done), Some(outcome)) =
                    (self.locates.remove(&id), self.machine.end_locate(id))
                {
                    let _ = done.send(outcome);
                }
            }
            Settled::Request(id) => {
                if let Some(done) = self.requests.remove(&id) {
                    let _ = done.send(self.machine.end_request(id));
                }
            }
        }
    }

    fn on_message(&mut self, msg: Delivery) {
        let counters = &self.net.counters;
        counters.events.fetch_add(1, Ordering::Relaxed);
        if self.crashed {
            // like the simulator: the message dies here, but the driver
            // must never block on a dead node's answer
            counters.dropped.fetch_add(1, Ordering::Relaxed);
            match msg {
                Delivery::Locate { targets, done, .. } => {
                    let _ = done.send(LiveLocateOutcome::unanswered(targets.len()));
                }
                Delivery::Request { done, .. } => {
                    let _ = done.send(None);
                }
                Delivery::Proto(_) => {}
            }
            return;
        }
        counters.delivered.fetch_add(1, Ordering::Relaxed);
        counters.node_load[self.net.me.index()].fetch_add(1, Ordering::Relaxed);
        // the threads keep no clock: every machine step happens "at 0"
        let me = self.net.me;
        let settled = match msg {
            Delivery::Proto(m) => self.machine.handle(me, m, 0, &mut self.net),
            Delivery::Locate {
                port,
                locate_id,
                targets,
                done,
            } => {
                self.locates.insert(locate_id, done);
                let vacuous = self.machine.begin_locate(locate_id, targets.len(), 0);
                let cmd = ProtoMsg::DoLocate {
                    port,
                    locate_id,
                    targets,
                };
                self.machine.handle(me, cmd, 0, &mut self.net).or(vacuous)
            }
            Delivery::Request {
                port,
                addr,
                body,
                request_id,
                done,
            } => {
                self.requests.insert(request_id, done);
                self.machine.begin_request(request_id, 0);
                let cmd = ProtoMsg::DoRequest {
                    port,
                    addr,
                    body,
                    request_id,
                };
                self.machine.handle(me, cmd, 0, &mut self.net)
            }
        };
        if let Some(s) = settled {
            self.report(s)
        }
    }
}

/// Locks `m`, ignoring poison: a driver thread that panicked holding a
/// lock left no half-applied invariant in a crash flag or a handle list.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A live network of `n` node threads exchanging match-making traffic.
///
/// The driver API is synchronous and crash-aware: operations whose target
/// set is entirely live block until their true verdict; operations that
/// would wait on a crashed node forever are quiesced with barriers and
/// force-classified — the deterministic analogue of a client timeout.
pub struct LiveNet {
    senders: Vec<Sender<LiveMsg>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    counters: Arc<LiveCounters>,
    /// Driver-side crash view — who would never answer a query right now.
    /// This is the runtime's truth; `mm-workload`'s runner keeps exactly
    /// one view of its own (`timeline::Draws`), so don't add a third.
    crashed: Mutex<Vec<bool>>,
    clock: AtomicU64,
    next_locate: AtomicU64,
    next_request: AtomicU64,
}

impl LiveNet {
    /// Spawns `n` node threads.
    pub fn new(n: usize) -> Self {
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let counters = Arc::new(LiveCounters::new(n));
        let mut handles = Vec::with_capacity(n);
        for (me, rx) in receivers.into_iter().enumerate() {
            let node = NodeThread {
                rx,
                net: Net {
                    me: NodeId::from(me),
                    peers: senders.clone(),
                    counters: Arc::clone(&counters),
                },
                crashed: false,
                machine: NodeMachine::default(),
                locates: HashMap::new(),
                requests: HashMap::new(),
            };
            handles.push(std::thread::spawn(move || node.run()));
        }
        LiveNet {
            senders,
            handles: Mutex::new(handles),
            counters,
            crashed: Mutex::new(vec![false; n]),
            clock: AtomicU64::new(0),
            next_locate: AtomicU64::new(0),
            next_request: AtomicU64::new(0),
        }
    }

    /// Number of node threads.
    pub fn node_count(&self) -> usize {
        self.senders.len()
    }

    /// Total inter-node message passes so far (the paper's `m` numerator).
    pub fn message_passes(&self) -> u64 {
        self.counters.passes.load(Ordering::Relaxed)
    }

    /// Snapshot of all counters as a simulator-compatible [`Metrics`], so
    /// both runtimes serialize reports with identical semantics.
    /// `peak_queue_depth` is always 0 (mailbox depth is not sampled) and
    /// `events_executed` counts protocol messages processed or dropped —
    /// control-plane traffic is invisible, matching the simulator's free
    /// external state changes.
    pub fn metrics(&self) -> Metrics {
        let c = &self.counters;
        let mut m = Metrics::new(c.node_load.len());
        m.message_passes = c.passes.load(Ordering::SeqCst);
        m.sends = c.sends.load(Ordering::SeqCst);
        m.delivered = c.delivered.load(Ordering::SeqCst);
        m.dropped = c.dropped.load(Ordering::SeqCst);
        m.crashes = c.crashes.load(Ordering::SeqCst);
        m.events_executed = c.events.load(Ordering::SeqCst);
        for (slot, a) in m.node_load.iter_mut().zip(c.node_load.iter()) {
            *slot = a.load(Ordering::SeqCst);
        }
        m
    }

    /// Applies `change` at node `to` and waits for its ack.
    fn control(&self, to: NodeId, change: Change) {
        self.barrier_with([to], change);
    }

    /// Waits until every node in `targets` has drained its mailbox up to
    /// this point. FIFO channels make the ack a happens-after proof for
    /// everything enqueued at the node before the barrier.
    fn barrier<I: IntoIterator<Item = NodeId>>(&self, targets: I) {
        self.barrier_with(targets, Change::Barrier);
    }

    fn barrier_with<I: IntoIterator<Item = NodeId>>(&self, targets: I, change: Change) {
        let (ack_tx, ack_rx) = channel();
        let mut expected = 0usize;
        for t in targets {
            let _ = self.senders[t.index()].send(LiveMsg::Control {
                change,
                ack: ack_tx.clone(),
            });
            expected += 1;
        }
        drop(ack_tx);
        for _ in 0..expected {
            ack_rx
                .recv_timeout(WEDGE_TIMEOUT)
                .expect("live control ack: runtime wedged");
        }
    }

    /// Next logical stamp — registrations are totally ordered, so
    /// re-registration always supersedes (monotonically increasing stamps,
    /// the paper's timestamp conflict rule).
    fn next_stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Starts (`on`) or stops serving `port` at `at` and posts or withdraws
    /// `(port, at)` at `targets` under a fresh stamp; on return the change
    /// is observable by any subsequent locate.
    fn advertise(&self, at: NodeId, port: Port, targets: TargetSet, on: bool) -> u64 {
        let stamp = self.next_stamp();
        self.control(at, Change::Serve { port, on });
        let cmd = ProtoMsg::advertise(on, port, at, stamp, targets.clone());
        let _ = self.senders[at.index()].send(LiveMsg::Deliver(Delivery::Proto(cmd)));
        // the first barrier proves the fan-out enqueued everywhere, the
        // second that it was *processed* everywhere before the driver
        // moves on
        self.barrier([at]);
        self.barrier(targets.iter());
        stamp
    }

    /// Registers a server for `port` at `at` and posts `(port, at)` at
    /// `targets` (the strategy's `P(at)`). Returns the posting stamp; on
    /// return the postings are observable by any subsequent locate.
    pub fn register_server(&self, at: NodeId, port: Port, targets: impl Into<TargetSet>) -> u64 {
        self.advertise(at, port, targets.into(), true)
    }

    /// Deregisters the server at `at` and withdraws its postings from
    /// `targets` with a fresh stamp (withdrawal never erases a newer
    /// advertisement). On return the withdrawal is observable.
    pub fn deregister_server(&self, at: NodeId, port: Port, targets: impl Into<TargetSet>) -> u64 {
        self.advertise(at, port, targets.into(), false)
    }

    /// Migrates the service on `port` from `from` to `to`: the old host
    /// stops serving, the new one registers with a newer stamp (the
    /// paper's mobile-process scenario). `post_targets` is `P(to)`.
    pub fn migrate_server(
        &self,
        port: Port,
        from: NodeId,
        to: NodeId,
        post_targets: impl Into<TargetSet>,
    ) -> u64 {
        self.control(from, Change::Serve { port, on: false });
        self.register_server(to, port, post_targets)
    }

    /// Crashes a node: it drops every protocol message until restored.
    pub fn crash(&self, v: NodeId) {
        lock(&self.crashed)[v.index()] = true;
        self.counters.crashes.fetch_add(1, Ordering::Relaxed);
        self.control(v, Change::Crash);
    }

    /// Restores a crashed node (cache intact, like [`mm_sim::Sim::restore`];
    /// pair with [`LiveNet::clear_cache`] to model lost volatile memory).
    pub fn restore(&self, v: NodeId) {
        lock(&self.crashed)[v.index()] = false;
        self.control(v, Change::Restore);
    }

    /// Empties a node's rendezvous cache (works on crashed nodes too).
    pub fn clear_cache(&self, v: NodeId) {
        self.control(v, Change::ClearCache);
    }

    /// Assigns an adversarial behavior profile to a node (see
    /// [`FaultProfile`]) — the live counterpart of
    /// [`crate::ShotgunEngine::set_fault`]. Synchronous: on return every
    /// later protocol message at the node sees the new profile.
    pub fn set_fault(&self, v: NodeId, profile: FaultProfile) {
        self.control(v, Change::SetFault(profile));
    }

    /// Waits for an operation's verdict while every node it depends on
    /// looked live at issue. `None` means a *concurrent* crash (from
    /// another driver thread) moved the crash epoch past `crash_epoch` —
    /// the counter only ever grows, so even a crash followed by an
    /// immediate restore, invisible to a plain crashed-flag re-check, is
    /// caught — and the caller must force-classify instead of blocking on
    /// a reply that may never arrive.
    fn await_unless_raced<T>(&self, done_rx: &Receiver<T>, crash_epoch: u64) -> Option<T> {
        let mut waited = Duration::ZERO;
        loop {
            if let Ok(outcome) = done_rx.recv_timeout(RACE_RECHECK) {
                return Some(outcome);
            }
            waited += RACE_RECHECK;
            assert!(waited < WEDGE_TIMEOUT, "live operation: runtime wedged");
            if self.counters.crashes.load(Ordering::SeqCst) != crash_epoch {
                return None;
            }
        }
    }

    /// Locates `port` from `client` by querying `targets` (the strategy's
    /// `Q(client)`) and blocks until the verdict:
    ///
    /// * all targets live → every one answers; `Found`/`NotFound`.
    /// * some targets crashed → they can never answer while the driver
    ///   holds them crashed, so the locate is deterministically
    ///   `Unresolved`: the driver quiesces the fan-out (client, live
    ///   targets, client again — one barrier per protocol round) and
    ///   force-finishes the pending operation, standing in for the
    ///   simulator's client timeout.
    pub fn locate(
        &self,
        client: NodeId,
        port: Port,
        targets: impl Into<TargetSet>,
    ) -> LiveLocateOutcome {
        let targets = targets.into();
        let id = self.next_locate.fetch_add(1, Ordering::SeqCst);
        let (done_tx, done_rx) = channel();
        let crash_epoch = self.counters.crashes.load(Ordering::SeqCst);
        let crashed_targets = |net: &Self| -> Vec<NodeId> {
            let crashed = lock(&net.crashed);
            targets.iter().filter(|t| crashed[t.index()]).collect()
        };
        let all_live = crashed_targets(self).is_empty();
        let _ = self.senders[client.index()].send(LiveMsg::Deliver(Delivery::Locate {
            port,
            locate_id: id,
            targets: targets.clone(),
            done: done_tx,
        }));
        if all_live {
            if let Some(outcome) = self.await_unless_raced(&done_rx, crash_epoch) {
                return outcome;
            }
        }
        // a crashed rendezvous never answers: quiesce, then give up
        let crashed_now = crashed_targets(self);
        self.barrier([client]); // queries fanned out
        self.barrier(targets.iter().filter(|t| !crashed_now.contains(t))); // answers sent
        self.barrier([client]); // answers absorbed
        let _ = self.senders[client.index()].send(LiveMsg::Finish(Settled::Locate(id)));
        done_rx
            .recv_timeout(WEDGE_TIMEOUT)
            .expect("live locate finish: runtime wedged")
    }

    /// Convenience wrapper: the located address, if any.
    pub fn locate_addr(
        &self,
        client: NodeId,
        port: Port,
        targets: impl Into<TargetSet>,
    ) -> Option<NodeId> {
        self.locate(client, port, targets).addr()
    }

    /// Sends an application request from `client` to the located address
    /// `addr` and blocks for the outcome. `None` means the server never
    /// answered (crashed host — force-classified deterministically, like
    /// [`LiveNet::locate`]'s unresolved path).
    pub fn request(
        &self,
        client: NodeId,
        addr: NodeId,
        port: Port,
        body: u64,
    ) -> Option<RequestOutcome> {
        let id = self.next_request.fetch_add(1, Ordering::SeqCst);
        let (done_tx, done_rx) = channel();
        let crash_epoch = self.counters.crashes.load(Ordering::SeqCst);
        let addr_crashed = lock(&self.crashed)[addr.index()];
        let _ = self.senders[client.index()].send(LiveMsg::Deliver(Delivery::Request {
            port,
            addr,
            body,
            request_id: id,
            done: done_tx,
        }));
        if !addr_crashed {
            if let Some(outcome) = self.await_unless_raced(&done_rx, crash_epoch) {
                return outcome;
            }
        }
        self.barrier([client]); // request sent
        self.barrier([addr]); // request dropped at the crashed host
        let _ = self.senders[client.index()].send(LiveMsg::Finish(Settled::Request(id)));
        done_rx
            .recv_timeout(WEDGE_TIMEOUT)
            .expect("live request finish: runtime wedged")
    }

    /// Shuts all node threads down and joins them.
    pub fn shutdown(&self) {
        for s in &self.senders {
            let _ = s.send(LiveMsg::Shutdown);
        }
        let mut handles = lock(&self.handles);
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for LiveNet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for LiveNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveNet")
            .field("n", &self.senders.len())
            .field("message_passes", &self.message_passes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FORGED_STAMP;
    use mm_core::strategies::Checkerboard;
    use mm_core::Strategy;

    #[test]
    fn live_locate_finds_server() {
        let n = 16;
        let strat = Checkerboard::new(n);
        let net = LiveNet::new(n);
        let port = Port::from_name("file");
        let server = NodeId::new(3);
        net.register_server(server, port, strat.post_set(server));
        let client = NodeId::new(12);
        let found = net.locate_addr(client, port, strat.query_set(client));
        assert_eq!(found, Some(server));
        net.shutdown();
    }

    #[test]
    fn live_locate_unknown_port_is_not_found() {
        let n = 9;
        let strat = Checkerboard::new(n);
        let net = LiveNet::new(n);
        let found = net.locate(
            NodeId::new(0),
            Port::from_name("ghost"),
            strat.query_set(NodeId::new(0)),
        );
        assert_eq!(found, LiveLocateOutcome::NotFound { elapsed: 0 });
    }

    #[test]
    fn live_newest_stamp_wins_after_remigration() {
        let n = 25;
        let strat = Checkerboard::new(n);
        let net = LiveNet::new(n);
        let port = Port::from_name("db");
        net.register_server(NodeId::new(2), port, strat.post_set(NodeId::new(2)));
        net.register_server(NodeId::new(17), port, strat.post_set(NodeId::new(17)));
        let found = net.locate_addr(NodeId::new(20), port, strat.query_set(NodeId::new(20)));
        assert_eq!(found, Some(NodeId::new(17)), "later registration wins");
    }

    #[test]
    fn live_refuse_match_severs_the_singleton_rendezvous() {
        let n = 16;
        let strat = Checkerboard::new(n);
        let net = LiveNet::new(n);
        let port = Port::from_name("svc");
        let server = NodeId::new(3);
        let client = NodeId::new(12);
        let rdv = strat.rendezvous(server, client);
        assert_eq!(rdv.len(), 1);
        net.set_fault(rdv[0], FaultProfile::RefuseMatch);
        net.register_server(server, port, strat.post_set(server));
        assert_eq!(
            net.locate(client, port, strat.query_set(client)),
            LiveLocateOutcome::NotFound { elapsed: 0 }
        );
        // refuse-match still *stores* posts: healing the node heals the pair
        net.set_fault(rdv[0], FaultProfile::Honest);
        assert_eq!(
            net.locate_addr(client, port, strat.query_set(client)),
            Some(server)
        );
        net.shutdown();
    }

    #[test]
    fn live_forged_address_is_flagged_by_dissent() {
        use mm_core::strategies::Broadcast;
        let n = 16;
        let strat = Broadcast::new(n);
        let net = LiveNet::new(n);
        let port = Port::from_name("svc");
        let server = NodeId::new(3);
        net.register_server(server, port, strat.post_set(server));
        let liar = NodeId::new(7);
        net.set_fault(liar, FaultProfile::ForgedAddress);
        let client = NodeId::new(0);
        match net.locate(client, port, strat.query_set(client)) {
            LiveLocateOutcome::Found {
                addr,
                stamp,
                dissent,
                ..
            } => {
                assert_eq!(addr, liar, "the forged stamp out-bids honesty");
                assert_eq!(stamp, FORGED_STAMP);
                assert!(dissent >= 1, "the honest hit disagrees: lie is detectable");
            }
            other => panic!("expected a (detectable) forged hit, got {other:?}"),
        }
        net.shutdown();
    }

    #[test]
    fn live_message_count_matches_model() {
        // #P posts + #Q queries + #Q replies, self-messages free
        let n = 16;
        let strat = Checkerboard::new(n);
        let net = LiveNet::new(n);
        let port = Port::from_name("svc");
        let server = NodeId::new(5);
        net.register_server(server, port, strat.post_set(server));
        let before = net.message_passes();
        let client = NodeId::new(9);
        let _ = net.locate(client, port, strat.query_set(client));
        let after = net.message_passes();
        let q = strat.query_count(client) as u64;
        // queries to self are free, replies from self too
        let self_in_q = strat.query_set(client).contains(&client) as u64;
        assert_eq!(after - before, 2 * (q - self_in_q));
    }

    #[test]
    fn deregistration_withdraws_postings() {
        let n = 16;
        let strat = Checkerboard::new(n);
        let net = LiveNet::new(n);
        let port = Port::from_name("tmp");
        let server = NodeId::new(4);
        net.register_server(server, port, strat.post_set(server));
        net.deregister_server(server, port, strat.post_set(server));
        let found = net.locate(NodeId::new(1), port, strat.query_set(NodeId::new(1)));
        assert_eq!(
            found,
            LiveLocateOutcome::NotFound { elapsed: 0 },
            "unposted everywhere"
        );
    }

    #[test]
    fn reregistration_supersedes_deregistration() {
        // crash + come back: the re-registration's newer stamp must win
        // over any stale state, and the stamps must be strictly monotone
        let n = 16;
        let strat = Checkerboard::new(n);
        let net = LiveNet::new(n);
        let port = Port::from_name("svc");
        let server = NodeId::new(6);
        let s1 = net.register_server(server, port, strat.post_set(server));
        let s2 = net.deregister_server(server, port, strat.post_set(server));
        let s3 = net.register_server(server, port, strat.post_set(server));
        assert!(s1 < s2 && s2 < s3, "stamps bump monotonically");
        let client = NodeId::new(11);
        match net.locate(client, port, strat.query_set(client)) {
            LiveLocateOutcome::Found {
                addr, stamp, meets, ..
            } => {
                assert_eq!(addr, server);
                assert_eq!(stamp, s3, "the freshest posting wins");
                assert!(!meets.is_empty(), "a found locate met at least once");
            }
            other => panic!("expected Found after re-registration, got {other:?}"),
        }
    }

    #[test]
    fn crashed_rendezvous_forces_unresolved() {
        let n = 16;
        let strat = Checkerboard::new(n);
        let net = LiveNet::new(n);
        let port = Port::from_name("svc");
        let server = NodeId::new(5);
        net.register_server(server, port, strat.post_set(server));
        let client = NodeId::new(9);
        let targets = strat.query_set(client);
        net.crash(targets[0]);
        match net.locate(client, port, targets.clone()) {
            LiveLocateOutcome::Unresolved { missing, .. } => {
                assert!(missing >= 1, "the crashed target never answers")
            }
            other => panic!("expected Unresolved, got {other:?}"),
        }
        // restore: the node kept its cache, locates complete again
        net.restore(targets[0]);
        assert_eq!(net.locate_addr(client, port, targets), Some(server));
    }

    #[test]
    fn request_roundtrip_and_stale_address() {
        let n = 16;
        let strat = Checkerboard::new(n);
        let net = LiveNet::new(n);
        let port = Port::from_name("adder");
        let server = NodeId::new(3);
        net.register_server(server, port, strat.post_set(server));
        assert_eq!(
            net.request(NodeId::new(12), server, port, 41),
            Some(RequestOutcome::Replied {
                body: 42,
                elapsed: 0
            })
        );
        // migrate away: the old address bounces
        net.migrate_server(port, server, NodeId::new(9), strat.post_set(NodeId::new(9)));
        assert_eq!(
            net.request(NodeId::new(12), server, port, 1),
            Some(RequestOutcome::StaleAddress)
        );
        // a crashed host never answers at all
        net.crash(NodeId::new(9));
        assert_eq!(net.request(NodeId::new(12), NodeId::new(9), port, 1), None);
    }

    #[test]
    fn metrics_snapshot_mirrors_sim_semantics() {
        let n = 9;
        let strat = Checkerboard::new(n);
        let net = LiveNet::new(n);
        let port = Port::from_name("svc");
        let server = NodeId::new(4);
        net.register_server(server, port, strat.post_set(server));
        let m = net.metrics();
        let p = strat.post_count(server) as u64;
        let self_in_p = strat.post_set(server).contains(&server) as u64;
        assert_eq!(m.message_passes, p - self_in_p, "posting costs #P passes");
        // the DoPost injection + every posting delivery
        assert_eq!(m.delivered, 1 + p);
        assert_eq!(m.dropped, 0);
        assert_eq!(m.node_load.iter().sum::<u64>(), m.delivered);
        assert_eq!(m.events_executed, m.delivered);
        assert_eq!(m.peak_queue_depth, 0, "not sampled in the live runtime");
    }

    /// A post issued at a crashed host dies there like any message — one
    /// event, one drop, nothing sent — and the driver still returns.
    #[test]
    fn registering_at_a_crashed_host_is_one_dropped_event() {
        let n = 9;
        let strat = Checkerboard::new(n);
        let net = LiveNet::new(n);
        let server = NodeId::new(4);
        net.crash(server);
        let before = net.metrics();
        net.register_server(server, Port::from_name("svc"), strat.post_set(server));
        let m = net.metrics().delta(&before);
        assert_eq!(m.events_executed, 1);
        assert_eq!(m.dropped, 1);
        assert_eq!(m.delivered, 0);
        assert_eq!(m.sends, 0);
        assert_eq!(m.message_passes, 0);
        net.shutdown();
    }

    /// The machine completes a locate that asks nobody at issue, and a
    /// crashed client's locate is missing its whole query set — the same
    /// two answers the simulator host gives (`shotgun::tests`).
    #[test]
    fn empty_query_set_and_crashed_client_match_the_simulator() {
        let n = 16;
        let strat = Checkerboard::new(n);
        let net = LiveNet::new(n);
        let port = Port::from_name("svc");
        let client = NodeId::new(9);
        assert_eq!(
            net.locate(client, port, Vec::new()),
            LiveLocateOutcome::NotFound { elapsed: 0 }
        );
        let q = strat.query_set(client);
        net.crash(client);
        assert_eq!(
            net.locate(client, port, q.clone()),
            LiveLocateOutcome::unanswered(q.len())
        );
        net.shutdown();
    }
}
