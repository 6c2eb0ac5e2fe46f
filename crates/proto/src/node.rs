//! The match-making protocol as one transport-free node machine.
//!
//! The paper's guarantee — `P(s) ∩ Q(c) ≠ ∅` ⇒ the locate meets the post —
//! is a property of the post/query sets, not of whoever schedules the
//! messages. [`NodeMachine`] is therefore written once, as per-node rules
//! `(state, message) → effects`, and hosted twice: the simulator
//! ([`crate::shotgun`]) forwards its effects to the event queue, the
//! threaded runtime ([`crate::live`]) to channel mailboxes. Rendezvous
//! caching, every [`FaultProfile`] arm, best-stamp selection and the
//! client-side operation bookkeeping live here and nowhere else.
//!
//! A machine holds state only where the protocol gives it some. Its
//! rendezvous side (the cache and the fault profile) and its local side
//! (served ports and open operations) each sit behind a box that is
//! allocated on first use, so a [`NodeMachine`] that never stored a post,
//! turned hostile, served or issued is two null pointers — 16 bytes — and
//! a query to it answers `Miss` from that alone.

use crate::cache::{Cache, CacheEntry};
use crate::fault::{FaultProfile, FORGED_STAMP};
use crate::messages::ProtoMsg;
use mm_core::Port;
use mm_sim::{SimTime, TargetSet};
use mm_topo::NodeId;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Where a [`NodeMachine`] puts the messages it wants sent; the host
/// decides what sending means (and what it costs).
pub trait Outbox {
    /// Point-to-point send.
    fn send(&mut self, to: NodeId, msg: ProtoMsg);
    /// One copy of `msg` to every member of `to`.
    fn multicast(&mut self, to: TargetSet, msg: ProtoMsg);
}

/// Client-side bookkeeping for one locate operation.
#[derive(Debug, Clone, Default)]
struct Pending {
    expected: usize,
    misses: usize,
    /// Hit answers as `(answering node, advertised addr, stamp)`, in
    /// arrival order. The winner is chosen at read time by
    /// [`Pending::best`], so arrival order never influences the verdict.
    answers: Vec<(NodeId, NodeId, u64)>,
    issued_at: SimTime,
    completed_at: Option<SimTime>,
}

impl Pending {
    /// The winning advertisement: newest stamp, ties broken by lowest
    /// answering node — deterministic regardless of reply arrival order
    /// (thread mailboxes do not preserve it).
    fn best(&self) -> Option<(NodeId, u64)> {
        self.answers
            .iter()
            .max_by(|a, b| a.2.cmp(&b.2).then(b.0.cmp(&a.0)))
            .map(|&(_, addr, stamp)| (addr, stamp))
    }

    /// Hit answers that disagree with the winning address — the client's
    /// cross-check signal for Byzantine forgeries.
    fn dissent(&self) -> usize {
        match self.best() {
            Some((winner, _)) => self.answers.iter().filter(|a| a.1 != winner).count(),
            None => 0,
        }
    }

    /// Closes the books on `k` answers just recorded: `true` when the
    /// count of answers crossed `expected` inside those `k` — when one of
    /// `k` answers recorded one at a time would have been the last one
    /// awaited.
    fn answered(&mut self, k: usize, now: SimTime) -> bool {
        let after = self.answers.len() + self.misses;
        let complete = after - k < self.expected && self.expected <= after;
        if complete {
            self.completed_at = Some(now);
        }
        complete
    }

    fn outcome(&self) -> LocateOutcome {
        match self.completed_at {
            Some(done) => match self.best() {
                Some((addr, stamp)) => {
                    let mut meets: Vec<NodeId> = self.answers.iter().map(|a| a.0).collect();
                    meets.sort_unstable();
                    LocateOutcome::Found {
                        addr,
                        stamp,
                        elapsed: done - self.issued_at,
                        meets,
                        dissent: self.dissent(),
                    }
                }
                None => LocateOutcome::NotFound {
                    elapsed: done - self.issued_at,
                },
            },
            None => LocateOutcome::Unresolved {
                hits: self.answers.len(),
                misses: self.misses,
                missing: self.expected - self.answers.len() - self.misses,
                best: self.best(),
                dissent: self.dissent(),
            },
        }
    }
}

/// The state of a finished (or still-running) locate. Hosts without a
/// clock (the threaded runtime) report every `elapsed` as 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocateOutcome {
    /// Every queried node answered and at least one had the port cached:
    /// the freshest address wins.
    Found {
        /// The located server address.
        addr: NodeId,
        /// The winning advertisement's timestamp.
        stamp: u64,
        /// Ticks from issue to the final answer.
        elapsed: SimTime,
        /// The rendezvous nodes that answered with a hit, sorted — the
        /// realized match-making intersection, `|meets| = m(P,Q)` when
        /// postings are fresh.
        meets: Vec<NodeId>,
        /// Hit answers whose address disagreed with the winner. Zero on
        /// honest fresh runs; nonzero whenever stale caches or Byzantine
        /// forgeries were out-voted — the client's lie-detection signal.
        dissent: usize,
    },
    /// Every queried node answered and none knew the port (vacuously so
    /// for an empty query set).
    NotFound {
        /// Ticks from issue to the final answer.
        elapsed: SimTime,
    },
    /// Some queried nodes never answered (crashed rendezvous); partial
    /// results are reported.
    Unresolved {
        /// Hits received so far.
        hits: usize,
        /// Misses received so far.
        misses: usize,
        /// Queries that never got an answer.
        missing: usize,
        /// Best address seen so far, if any hit arrived.
        best: Option<(NodeId, u64)>,
        /// Hit answers received so far that disagree with `best` — lets a
        /// client that salvages a partial answer at timeout still run its
        /// lie detection.
        dissent: usize,
    },
}

impl LocateOutcome {
    /// A locate none of whose `queried` targets has answered — what a
    /// client that crashed before fanning out is left with.
    pub fn unanswered(queried: usize) -> Self {
        LocateOutcome::Unresolved {
            hits: 0,
            misses: 0,
            missing: queried,
            best: None,
            dissent: 0,
        }
    }

    /// Convenience: the located address if the outcome is `Found`.
    pub fn addr(&self) -> Option<NodeId> {
        match self {
            LocateOutcome::Found { addr, .. } => Some(*addr),
            _ => None,
        }
    }

    /// `true` if every queried node answered.
    pub fn is_complete(&self) -> bool {
        !matches!(self, LocateOutcome::Unresolved { .. })
    }
}

/// Outcome of an application-level request (service model, §1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The server answered.
    Replied {
        /// Response body.
        body: u64,
        /// Ticks from issue to reply.
        elapsed: SimTime,
    },
    /// The addressed node does not serve the port (stale cache).
    StaleAddress,
}

/// A client operation the message just handled brought to its verdict —
/// what a host that reports completions (instead of being polled) needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Settled {
    /// The locate with this id has every answer it awaited.
    Locate(u64),
    /// The request with this id was answered.
    Request(u64),
}

/// Hashes the engine's own operation ids: a golden-ratio multiply, no
/// SipHash. The ids are counters the host issues, never external input,
/// so there is nothing to randomize against; and neither map keyed by
/// them is ever iterated, so the table order cannot reach any output.
#[derive(Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id;
    }

    fn finish(&self) -> u64 {
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// A map keyed by engine-issued operation ids.
type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// What the processes on a node keep: the ports they serve and the
/// operations they have open. Only a node that serves or issues has any.
#[derive(Debug, Default)]
struct Local {
    /// Ports served by a process on this node.
    served: BTreeSet<Port>,
    pending: IdMap<Pending>,
    requests: IdMap<(SimTime, Option<RequestOutcome>)>,
}

/// What a node keeps as a rendezvous: the posts it stores and how it
/// treats them. Only a node that was posted to, or made hostile, has any.
#[derive(Debug, Default)]
struct Rendezvous {
    cache: Cache,
    fault: FaultProfile,
}

/// Per-node protocol state and rules, in two lazily allocated boxes: the
/// rendezvous side (cache and fault profile), allocated by the first
/// `Post` or by a [`set_fault`](Self::set_fault) to a profile other than
/// honest; and the local side (served ports and client-side operation
/// bookkeeping), allocated by the first `serve`, `begin_locate` or
/// `begin_request`.
///
/// The paper's storage cost is the posts servers leave, Σ|P(s)| cache
/// entries, not a record per node, and at scale few nodes hold either
/// side: a checkerboard run stores posts on one node in `√n`'s worth of
/// columns and has a client at a few percent of the nodes. So a bare
/// node is two null pointers, and everything else is paid for by the
/// nodes that use it. The cache and the fault profile share a box apart
/// from the local side because a rendezvous delivery (`Post`, `Unpost`,
/// `Query`) reads both and nothing else: a query to a client's node must
/// not dereference its client bookkeeping to learn that it is honest.
#[derive(Debug, Default)]
pub struct NodeMachine {
    rendezvous: Option<Box<Rendezvous>>,
    local: Option<Box<Local>>,
}

const _: () = assert!(std::mem::size_of::<NodeMachine>() == 16);

impl NodeMachine {
    fn local_mut(&mut self) -> &mut Local {
        self.local.get_or_insert_with(Box::default)
    }

    fn rendezvous_mut(&mut self) -> &mut Rendezvous {
        self.rendezvous.get_or_insert_with(Box::default)
    }

    /// This node's adversarial behavior profile (honest unless set).
    pub fn fault(&self) -> FaultProfile {
        self.rendezvous
            .as_ref()
            .map_or(FaultProfile::Honest, |r| r.fault)
    }

    /// Assigns an adversarial behavior profile (see [`FaultProfile`]); it
    /// governs every message the node handles from now on. Healing a node
    /// that was never hostile allocates nothing.
    pub fn set_fault(&mut self, profile: FaultProfile) {
        if self.rendezvous.is_some() || !profile.is_honest() {
            self.rendezvous_mut().fault = profile;
        }
    }

    /// Empties the rendezvous cache (a restored node's lost volatile
    /// memory); the fault profile stays.
    pub fn clear_cache(&mut self) {
        if let Some(r) = &mut self.rendezvous {
            r.cache.clear();
        }
    }

    /// The advertisement this node has cached for `port`, if any.
    pub fn cached(&self, port: Port) -> Option<CacheEntry> {
        self.rendezvous.as_ref()?.cache.lookup(port)
    }

    /// A process on this node starts serving `port`.
    pub fn serve(&mut self, port: Port) {
        self.local_mut().served.insert(port);
    }

    /// No process on this node serves `port` any longer.
    pub fn unserve(&mut self, port: Port) {
        if let Some(local) = &mut self.local {
            local.served.remove(&port);
        }
    }

    /// Opens the client-side record of a locate that queries `expected`
    /// nodes. An empty query set has nothing to wait for: the locate is
    /// complete (as `NotFound`) on the spot, and its verdict comes back
    /// here for the host to report — its `DoLocate` sends nothing and
    /// settles nothing, and a crashed client never runs it at all.
    pub fn begin_locate(&mut self, id: u64, expected: usize, now: SimTime) -> Option<Settled> {
        let vacuous = expected == 0;
        self.local_mut().pending.insert(
            id,
            Pending {
                expected,
                issued_at: now,
                completed_at: vacuous.then_some(now),
                ..Pending::default()
            },
        );
        vacuous.then_some(Settled::Locate(id))
    }

    /// Opens the client-side record of an application request.
    pub fn begin_request(&mut self, id: u64, now: SimTime) {
        self.local_mut().requests.insert(id, (now, None));
    }

    /// The current state of locate `id` (`None` for an id never begun).
    pub fn locate_outcome(&self, id: u64) -> Option<LocateOutcome> {
        self.local.as_ref()?.pending.get(&id).map(Pending::outcome)
    }

    /// Closes locate `id`, returning its state at this moment — partial
    /// if the host gave up on it early.
    pub fn end_locate(&mut self, id: u64) -> Option<LocateOutcome> {
        let closed = self.local.as_mut()?.pending.remove(&id);
        closed.map(|p| p.outcome())
    }

    /// The answer to request `id`, if it arrived.
    pub fn request_outcome(&self, id: u64) -> Option<RequestOutcome> {
        self.local.as_ref()?.requests.get(&id)?.1
    }

    /// Closes request `id`, returning its answer if one arrived.
    pub fn end_request(&mut self, id: u64) -> Option<RequestOutcome> {
        self.local.as_mut()?.requests.remove(&id)?.1
    }

    /// The `Miss` rule, written once for one answer (a `Miss` handled on
    /// its own) and for `k` (a fan-in of equal `Miss` answers): one lookup
    /// of locate `locate_id`, `k` more misses, and its verdict if one of
    /// `k` single misses would have settled it. An id never begun, or
    /// already closed, is ignored.
    pub(crate) fn missed(&mut self, locate_id: u64, k: usize, now: SimTime) -> Option<Settled> {
        let p = self.local.as_mut()?.pending.get_mut(&locate_id)?;
        p.misses += k;
        p.answered(k, now).then_some(Settled::Locate(locate_id))
    }

    /// The answer rule: what rendezvous node `me` answers a `Query` for
    /// `port` on behalf of locate `locate_id`. Written once, for a query
    /// handled here ([`handle`](Self::handle)) and for one the simulator
    /// answers without a handler call ([`mm_sim::Node::reply`]): hit,
    /// forged and refused answers all come from here, and sending the
    /// answer is all a query does. A node nobody posted to and nobody
    /// made hostile is an honest empty cache: it misses.
    pub(crate) fn answer(&self, me: NodeId, port: Port, locate_id: u64) -> ProtoMsg {
        let found = self.rendezvous.as_ref().and_then(|r| match r.fault {
            // forge a hit for every port, stamped to out-bid honesty
            FaultProfile::ForgedAddress => Some((me, FORGED_STAMP)),
            FaultProfile::RefuseMatch => None,
            _ => r.cache.lookup(port).map(|e| (e.addr, e.stamp)),
        });
        match found {
            Some((addr, stamp)) => ProtoMsg::Hit {
                port,
                addr,
                stamp,
                locate_id,
                at: me,
            },
            None => ProtoMsg::Miss { port, locate_id },
        }
    }

    /// Handles one protocol message delivered to node `me` at `now`,
    /// putting any messages it causes into `out`.
    pub fn handle<O: Outbox>(
        &mut self,
        me: NodeId,
        msg: ProtoMsg,
        now: SimTime,
        out: &mut O,
    ) -> Option<Settled> {
        match msg {
            ProtoMsg::DoPost {
                port,
                addr,
                stamp,
                targets,
            } => out.multicast(targets, ProtoMsg::Post { port, addr, stamp }),
            ProtoMsg::DoUnpost {
                port,
                addr,
                stamp,
                targets,
            } => out.multicast(targets, ProtoMsg::Unpost { port, addr, stamp }),
            ProtoMsg::DoLocate {
                port,
                locate_id,
                targets,
            } => out.multicast(
                targets,
                ProtoMsg::Query {
                    port,
                    reply_to: me,
                    locate_id,
                },
            ),
            ProtoMsg::DoRequest {
                port,
                addr,
                body,
                request_id,
            } => out.send(
                addr,
                ProtoMsg::Request {
                    port,
                    reply_to: me,
                    body,
                    request_id,
                },
            ),
            ProtoMsg::Post { port, addr, stamp } => {
                let r = self.rendezvous_mut();
                match r.fault {
                    // broken storage: the posting is silently lost
                    FaultProfile::DropPosts => {}
                    // pin the first posting; later (fresher) posts are ignored
                    FaultProfile::StaleAddress => {
                        if r.cache.lookup(port).is_none() {
                            r.cache.insert(port, addr, stamp);
                        }
                    }
                    _ => {
                        r.cache.insert(port, addr, stamp);
                    }
                }
            }
            ProtoMsg::Unpost { port, stamp, .. } => {
                if let Some(r) = &mut self.rendezvous {
                    if !matches!(
                        r.fault,
                        FaultProfile::DropPosts | FaultProfile::StaleAddress
                    ) {
                        r.cache.remove(port, stamp);
                    }
                }
            }
            ProtoMsg::Query {
                port,
                reply_to,
                locate_id,
            } => out.send(reply_to, self.answer(me, port, locate_id)),
            ProtoMsg::Hit {
                addr,
                stamp,
                locate_id,
                at,
                ..
            } => {
                let p = self.local.as_mut()?.pending.get_mut(&locate_id)?;
                p.answers.push((at, addr, stamp));
                return p.answered(1, now).then_some(Settled::Locate(locate_id));
            }
            ProtoMsg::Miss { locate_id, .. } => return self.missed(locate_id, 1, now),
            ProtoMsg::Request {
                port,
                reply_to,
                body,
                request_id,
            } => out.send(
                reply_to,
                if self
                    .local
                    .as_ref()
                    .is_some_and(|l| l.served.contains(&port))
                {
                    ProtoMsg::Reply {
                        port,
                        // a trivially checkable service: echo body + 1
                        body: body.wrapping_add(1),
                        request_id,
                    }
                } else {
                    ProtoMsg::NotHere { port, request_id }
                },
            ),
            ProtoMsg::Reply {
                body, request_id, ..
            } => {
                let (issued, slot) = self.local.as_mut()?.requests.get_mut(&request_id)?;
                *slot = Some(RequestOutcome::Replied {
                    body,
                    elapsed: now - *issued,
                });
                return Some(Settled::Request(request_id));
            }
            ProtoMsg::NotHere { request_id, .. } => {
                let (_, slot) = self.local.as_mut()?.requests.get_mut(&request_id)?;
                *slot = Some(RequestOutcome::StaleAddress);
                return Some(Settled::Request(request_id));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records what the machine wanted sent — no simulator, no threads.
    #[derive(Default)]
    struct Sent(Vec<(Vec<NodeId>, ProtoMsg)>);

    impl Outbox for Sent {
        fn send(&mut self, to: NodeId, msg: ProtoMsg) {
            self.0.push((vec![to], msg));
        }

        fn multicast(&mut self, to: TargetSet, msg: ProtoMsg) {
            self.0.push((to.iter().collect(), msg));
        }
    }

    const ME: NodeId = NodeId::new(4);
    const CLIENT: NodeId = NodeId::new(9);

    fn node(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn port() -> Port {
        Port::from_name("svc")
    }

    /// Runs `msgs` through a machine with `fault`, then queries it.
    fn answer_after(fault: FaultProfile, msgs: Vec<ProtoMsg>) -> ProtoMsg {
        let mut m = NodeMachine::default();
        m.set_fault(fault);
        let mut out = Sent::default();
        for msg in msgs {
            assert_eq!(m.handle(ME, msg, 0, &mut out), None);
        }
        assert!(out.0.is_empty(), "posts and unposts send nothing");
        let query = ProtoMsg::Query {
            port: port(),
            reply_to: CLIENT,
            locate_id: 7,
        };
        assert_eq!(m.handle(ME, query, 0, &mut out), None);
        let (to, reply) = out.0.pop().expect("every query is answered");
        assert_eq!(to, vec![CLIENT], "the answer goes to the asker");
        reply
    }

    fn post(addr: u32, stamp: u64) -> ProtoMsg {
        ProtoMsg::Post {
            port: port(),
            addr: node(addr),
            stamp,
        }
    }

    fn unpost(addr: u32, stamp: u64) -> ProtoMsg {
        ProtoMsg::Unpost {
            port: port(),
            addr: node(addr),
            stamp,
        }
    }

    fn hit(addr: u32, stamp: u64) -> ProtoMsg {
        ProtoMsg::Hit {
            port: port(),
            addr: node(addr),
            stamp,
            locate_id: 7,
            at: ME,
        }
    }

    fn miss() -> ProtoMsg {
        ProtoMsg::Miss {
            port: port(),
            locate_id: 7,
        }
    }

    /// Every `FaultProfile` × {`Post`, `Unpost`, `Query`} arm, as the
    /// answer a query gets after a post, a fresher re-post, and an unpost.
    #[test]
    fn fault_profiles_shape_what_a_rendezvous_node_answers() {
        use FaultProfile::*;
        let forged = hit(ME.raw(), FORGED_STAMP);
        // (profile, after one post, after a fresher re-post, after an unpost)
        let table = [
            (Honest, hit(1, 10), hit(2, 20), miss()),
            (DropPosts, miss(), miss(), miss()),
            (StaleAddress, hit(1, 10), hit(1, 10), hit(1, 10)),
            (ForgedAddress, forged.clone(), forged.clone(), forged),
            (RefuseMatch, miss(), miss(), miss()),
        ];
        for (fault, posted, reposted, unposted) in table {
            assert_eq!(answer_after(fault, vec![post(1, 10)]), posted, "{fault:?}");
            assert_eq!(
                answer_after(fault, vec![post(1, 10), post(2, 20)]),
                reposted,
                "{fault:?} re-post"
            );
            assert_eq!(
                answer_after(fault, vec![post(1, 10), unpost(1, 11)]),
                unposted,
                "{fault:?} unpost"
            );
        }
        // refuse-match still *stores* posts: healing the node heals the pair
        let mut m = NodeMachine::default();
        m.set_fault(RefuseMatch);
        m.handle(ME, post(1, 10), 0, &mut Sent::default());
        assert_eq!(m.cached(port()).map(|e| e.addr), Some(node(1)));
    }

    /// Feeds a three-target locate the given `(answering node, addr,
    /// stamp)` hits (the rest miss), in the given order.
    fn locate_with(answers: &[(u32, u32, u64)]) -> LocateOutcome {
        let mut m = NodeMachine::default();
        let mut out = Sent::default();
        m.begin_locate(7, 3, 100);
        for (i, &(at, addr, stamp)) in answers.iter().enumerate() {
            let msg = ProtoMsg::Hit {
                port: port(),
                addr: node(addr),
                stamp,
                locate_id: 7,
                at: node(at),
            };
            let last = i == 2;
            assert_eq!(
                m.handle(CLIENT, msg, 102, &mut out),
                last.then_some(Settled::Locate(7))
            );
        }
        for i in answers.len()..3 {
            let last = i == 2;
            assert_eq!(
                m.handle(CLIENT, miss(), 102, &mut out),
                last.then_some(Settled::Locate(7))
            );
        }
        assert!(out.0.is_empty(), "answers cause no traffic");
        m.locate_outcome(7).expect("begun")
    }

    #[test]
    fn best_breaks_stamp_ties_by_lowest_answering_node_in_any_arrival_order() {
        let expect = LocateOutcome::Found {
            addr: node(11),
            stamp: 5,
            elapsed: 2,
            meets: vec![node(1), node(2), node(3)],
            dissent: 2,
        };
        // nodes 1 and 3 tie on the newest stamp; node 1 is lower and wins
        let answers = [(1, 11, 5), (3, 13, 5), (2, 12, 4)];
        for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0], [1, 0, 2]] {
            let shuffled: Vec<_> = order.iter().map(|&i| answers[i]).collect();
            assert_eq!(locate_with(&shuffled), expect, "arrival order {order:?}");
        }
    }

    #[test]
    fn dissent_counts_hits_that_disagree_with_the_winner() {
        let dissent = |answers: &[(u32, u32, u64)]| match locate_with(answers) {
            LocateOutcome::Found { dissent, .. } => dissent,
            other => panic!("expected Found, got {other:?}"),
        };
        assert_eq!(
            dissent(&[(1, 11, 5), (2, 11, 4), (3, 11, 3)]),
            0,
            "unanimous"
        );
        assert_eq!(dissent(&[(1, 11, 5), (2, 12, 4), (3, 11, 3)]), 1);
        // a forged stamp wins, and both honest answers dissent
        assert_eq!(dissent(&[(1, 11, 5), (2, 2, FORGED_STAMP), (3, 11, 5)]), 2);
        assert_eq!(locate_with(&[]), LocateOutcome::NotFound { elapsed: 2 });
    }

    #[test]
    fn partial_and_vacuous_locates() {
        let mut m = NodeMachine::default();
        let mut out = Sent::default();
        assert_eq!(m.begin_locate(7, 3, 0), None, "three answers to wait for");
        assert_eq!(m.locate_outcome(7), Some(LocateOutcome::unanswered(3)));
        m.handle(CLIENT, hit(1, 10), 1, &mut out);
        assert_eq!(
            m.end_locate(7),
            Some(LocateOutcome::Unresolved {
                hits: 1,
                misses: 0,
                missing: 2,
                best: Some((node(1), 10)),
                dissent: 0,
            }),
            "giving up early reports the partial state"
        );
        assert_eq!(
            m.handle(CLIENT, miss(), 2, &mut out),
            None,
            "closed: ignored"
        );
        assert_eq!(m.locate_outcome(7), None);

        // an empty query set has nobody to wait for: the host learns it
        // at issue, from the record's opening
        assert_eq!(m.begin_locate(8, 0, 5), Some(Settled::Locate(8)));
        assert_eq!(
            m.locate_outcome(8),
            Some(LocateOutcome::NotFound { elapsed: 0 })
        );
        let fan_out = ProtoMsg::DoLocate {
            port: port(),
            locate_id: 8,
            targets: TargetSet::from_vec(vec![]),
        };
        assert_eq!(
            m.handle(CLIENT, fan_out, 5, &mut out),
            None,
            "already reported"
        );
        assert!(out.0.iter().all(|(to, _)| to.is_empty()), "asks nobody");
    }

    /// The rendezvous path is the hot one (2·√n nodes per locate): it
    /// must never reach into the client's box.
    #[test]
    fn a_rendezvous_only_machine_never_allocates_its_local_side() {
        let mut m = NodeMachine::default();
        let mut out = Sent::default();
        let query = ProtoMsg::Query {
            port: port(),
            reply_to: CLIENT,
            locate_id: 7,
        };
        for msg in [post(1, 10), query.clone(), unpost(1, 11), query] {
            m.handle(ME, msg, 0, &mut out);
        }
        m.unserve(port());
        assert!(m.local.is_none());
        assert_eq!(out.0.len(), 2, "both queries were answered");
    }

    fn query() -> ProtoMsg {
        ProtoMsg::Query {
            port: port(),
            reply_to: CLIENT,
            locate_id: 7,
        }
    }

    /// The simulator's [`reply`](mm_sim::Node::reply) to a query is the
    /// one send `handle` makes for it, for every fault profile on a bare
    /// node, on a node posted the port and on one posted another port;
    /// and handling the query changes nothing the next query could see.
    #[test]
    fn a_querys_reply_is_the_one_send_handle_makes() {
        use mm_sim::Node;
        use FaultProfile::*;
        for fault in [Honest, DropPosts, StaleAddress, ForgedAddress, RefuseMatch] {
            for posted in [None, Some(port()), Some(Port::from_name("other"))] {
                let at = format!("{fault:?} posted {posted:?}");
                let mut m = NodeMachine::default();
                m.set_fault(fault);
                if let Some(p) = posted {
                    let post = ProtoMsg::Post {
                        port: p,
                        addr: node(1),
                        stamp: 10,
                    };
                    m.handle(ME, post, 0, &mut Sent::default());
                }
                let reply = Node::reply(&m, ME, &query());
                for _ in 0..2 {
                    let mut out = Sent::default();
                    assert_eq!(m.handle(ME, query(), 3, &mut out), None, "{at}");
                    let want = reply.clone().map(|(to, msg)| (vec![to], msg));
                    assert_eq!(out.0, Vec::from_iter(want), "{at}");
                }
            }
        }
        // no other message has one: a fan carries posts, unposts and
        // queries, and of those only a query's handling is a lone send
        let m = NodeMachine::default();
        for msg in [post(1, 10), unpost(1, 11), hit(1, 10), miss()] {
            assert_eq!(Node::reply(&m, ME, &msg), None, "{msg:?}");
        }
    }

    /// What every node of a large run does that was never posted to:
    /// answer, be withdrawn from, be healed and be restored — on two null
    /// pointers.
    #[test]
    fn a_bare_machine_answers_and_heals_without_allocating() {
        let mut m = NodeMachine::default();
        let mut out = Sent::default();
        let bare = |m: &NodeMachine| m.rendezvous.is_none() && m.local.is_none();
        m.handle(ME, query(), 0, &mut out);
        assert!(bare(&m), "a query");
        m.handle(ME, unpost(1, 11), 0, &mut out);
        assert!(bare(&m), "an unpost");
        m.set_fault(FaultProfile::Honest);
        assert!(bare(&m), "healing");
        m.clear_cache();
        assert!(bare(&m), "a restore");
        assert_eq!(m.fault(), FaultProfile::Honest);
        assert_eq!(out.0.pop().map(|(_, reply)| reply), Some(miss()));
    }

    #[test]
    fn a_post_allocates_only_the_rendezvous_side_and_a_locate_only_the_local_side() {
        let mut rendezvous = NodeMachine::default();
        rendezvous.handle(ME, post(1, 10), 0, &mut Sent::default());
        assert!(rendezvous.rendezvous.is_some() && rendezvous.local.is_none());

        let mut client = NodeMachine::default();
        client.begin_locate(7, 3, 0);
        assert!(client.rendezvous.is_none() && client.local.is_some());

        let mut hostile = NodeMachine::default();
        hostile.set_fault(FaultProfile::RefuseMatch);
        assert!(hostile.rendezvous.is_some() && hostile.local.is_none());
    }

    #[test]
    fn clearing_the_cache_keeps_a_hostile_profile() {
        let mut m = NodeMachine::default();
        m.set_fault(FaultProfile::StaleAddress);
        m.handle(ME, post(1, 10), 0, &mut Sent::default());
        m.clear_cache();
        assert_eq!(m.fault(), FaultProfile::StaleAddress);
        assert_eq!(m.cached(port()), None);
        // the pin is gone with the cache, so the next post pins afresh
        m.handle(ME, post(2, 20), 0, &mut Sent::default());
        assert_eq!(m.cached(port()).map(|e| e.addr), Some(node(2)));
    }

    /// The `Miss` rule for `k` answers at once against `k` single `Miss`
    /// handles, over every locate of up to 6 expected answers, any prior
    /// hits and misses (a locate that already settled included), and
    /// `k ≤ 6`: the same verdict, and the same outcome — `completed_at`
    /// included — after.
    #[test]
    fn k_misses_at_once_settle_exactly_when_k_single_misses_would() {
        let prior = |expected: usize, hits: usize, misses: usize| {
            let mut m = NodeMachine::default();
            let mut out = Sent::default();
            m.begin_locate(7, expected, 0);
            for _ in 0..hits {
                m.handle(CLIENT, hit(1, 10), 1, &mut out);
            }
            for _ in 0..misses {
                m.handle(CLIENT, miss(), 2, &mut out);
            }
            m
        };
        for expected in 0..=6 {
            for hits in 0..=6 {
                for misses in 0..=6 {
                    for k in 1..=6 {
                        let at = (expected, hits, misses, k);
                        let mut once = prior(expected, hits, misses);
                        let mut single = prior(expected, hits, misses);
                        let settled = once.missed(7, k, 5);
                        let singles: Vec<Settled> = (0..k)
                            .filter_map(|_| single.handle(CLIENT, miss(), 5, &mut Sent::default()))
                            .collect();
                        assert!(singles.len() <= 1, "{at:?}");
                        assert_eq!(settled, singles.first().copied(), "{at:?}");
                        assert_eq!(once.locate_outcome(7), single.locate_outcome(7), "{at:?}");
                    }
                }
            }
        }
        // an id never begun allocates nothing and settles nothing
        let mut m = NodeMachine::default();
        assert_eq!(m.missed(8, 3, 5), None);
        assert!(m.local.is_none());
    }

    #[test]
    fn answers_for_an_id_never_begun_are_ignored() {
        let mut m = NodeMachine::default();
        let mut out = Sent::default();
        let reply = ProtoMsg::Reply {
            port: port(),
            body: 1,
            request_id: 7,
        };
        let not_here = ProtoMsg::NotHere {
            port: port(),
            request_id: 7,
        };
        for msg in [hit(1, 10), miss(), reply, not_here] {
            assert_eq!(m.handle(CLIENT, msg, 3, &mut out), None);
        }
        assert!(m.local.is_none() && out.0.is_empty());
        assert_eq!(m.locate_outcome(7), None);
        assert_eq!(m.end_locate(7), None);
        assert_eq!(m.request_outcome(7), None);
        assert_eq!(m.end_request(7), None);
    }

    #[test]
    fn requests_are_served_bounced_and_timed() {
        let mut server = NodeMachine::default();
        server.serve(port());
        let mut out = Sent::default();
        let ask = |p: Port| ProtoMsg::Request {
            port: p,
            reply_to: CLIENT,
            body: 41,
            request_id: 3,
        };
        server.handle(ME, ask(port()), 0, &mut out);
        server.handle(ME, ask(Port::from_name("other")), 0, &mut out);
        let replies: Vec<ProtoMsg> = out.0.drain(..).map(|(_, m)| m).collect();
        assert!(matches!(replies[0], ProtoMsg::Reply { body: 42, .. }));
        assert!(matches!(replies[1], ProtoMsg::NotHere { .. }));

        let mut client = NodeMachine::default();
        client.begin_request(3, 10);
        assert_eq!(client.request_outcome(3), None);
        assert_eq!(
            client.handle(CLIENT, replies[0].clone(), 12, &mut out),
            Some(Settled::Request(3))
        );
        assert_eq!(
            client.request_outcome(3),
            Some(RequestOutcome::Replied {
                body: 42,
                elapsed: 2
            })
        );
        client.begin_request(3, 20);
        client.handle(CLIENT, replies[1].clone(), 22, &mut out);
        assert_eq!(client.end_request(3), Some(RequestOutcome::StaleAddress));
        assert_eq!(client.end_request(3), None, "closed");
    }
}
