//! Hash Locate operations (paper §5): the efficient-but-fragile port-hash
//! name server, with the paper's two robustness repairs.
//!
//! * replication — `P(π) = Q(π)` maps to `r` nodes;
//! * rehashing — *"when the rendez-vous node for a particular service is
//!   down, rehashing can come up with another network address to act as a
//!   backup rendez-vous node. It then becomes necessary that services
//!   regularly poll their rendez-vous nodes to see if they are still
//!   alive."*
//!
//! [`HashLocateRuntime`] wraps a [`ShotgunEngine`] over
//! [`mm_core::strategies::HashLocate`] and adds `locate_with_rehash` (the
//! client side) and `poll_and_repair` (the server side).

use crate::shotgun::{LocateHandle, LocateOutcome, ShotgunEngine};
use mm_core::strategies::HashLocate;
use mm_core::Port;
use mm_sim::CostModel;
use mm_topo::{Graph, NodeId};

/// Outcome of a rehashing locate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RehashResult {
    /// The final outcome (from the last attempt).
    pub outcome: LocateOutcome,
    /// Attempts used (1 = primary replicas sufficed).
    pub attempts: u32,
}

/// Engine + hash-specific recovery logic.
#[derive(Debug)]
pub struct HashLocateRuntime {
    engine: ShotgunEngine<HashLocate>,
    /// Registered servers: (port, home node), needed for repair posting.
    servers: Vec<(Port, NodeId)>,
}

impl HashLocateRuntime {
    /// Builds the runtime over `graph` with the given replication factor.
    ///
    /// # Panics
    ///
    /// Panics if `replication` is not in `1..=n`.
    pub fn new(graph: Graph, replication: usize, cost_model: CostModel) -> Self {
        let hasher = HashLocate::new(graph.node_count(), replication);
        HashLocateRuntime {
            engine: ShotgunEngine::new(graph, hasher, cost_model),
            servers: Vec::new(),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &ShotgunEngine<HashLocate> {
        &self.engine
    }

    /// Mutable access to the wrapped engine (crash injection etc.).
    pub fn engine_mut(&mut self) -> &mut ShotgunEngine<HashLocate> {
        &mut self.engine
    }

    /// Registers a server; posts to the port's hash nodes.
    pub fn register_server(&mut self, at: NodeId, port: Port) {
        self.servers.push((port, at));
        self.engine.register_server(at, port);
        self.engine.run();
    }

    /// Client locate with up to `max_attempts − 1` rehashes: if the
    /// primary replicas yield no complete answer (crashed rendezvous), the
    /// client queries backup nodes produced by rehashing.
    ///
    /// For a backup to answer, the server must have repaired its postings
    /// (see [`HashLocateRuntime::poll_and_repair`]) — exactly the paper's
    /// polling requirement. The client walks the same backup sequence the
    /// server does: every node already tried, primaries and backups, is
    /// excluded from the next rehash.
    pub fn locate_with_rehash(
        &mut self,
        client: NodeId,
        port: Port,
        max_attempts: u32,
    ) -> RehashResult {
        let hasher = *self.engine.resolver();
        let mut excluded = hasher.rendezvous_nodes(port);
        let mut last: Option<LocateOutcome> = None;
        let mut attempts = 0;
        for attempt in 0..max_attempts {
            let handle: LocateHandle = if attempt == 0 {
                self.engine.locate(client, port)
            } else {
                match hasher.rehash(port, attempt - 1, &excluded) {
                    Some(backup) => {
                        excluded.push(backup);
                        self.engine.locate_at(client, port, vec![backup])
                    }
                    None => break,
                }
            };
            attempts = attempt + 1;
            self.engine.run();
            let outcome = self.engine.outcome(handle);
            if matches!(outcome, LocateOutcome::Found { .. }) {
                return RehashResult { outcome, attempts };
            }
            last = Some(outcome);
        }
        RehashResult {
            outcome: last.unwrap_or(LocateOutcome::NotFound { elapsed: 0 }),
            attempts,
        }
    }

    /// Server-side polling: each registered server checks its rendezvous
    /// nodes; for any crashed one it posts its address at the rehash
    /// backup — one post per repair, the live primaries keep the posting
    /// they have. Returns the number of repairs performed.
    pub fn poll_and_repair(&mut self) -> usize {
        let hasher = *self.engine.resolver();
        let mut repairs = 0usize;
        let servers = self.servers.clone();
        for (port, home) in servers {
            let primaries = hasher.rendezvous_nodes(port);
            let dead: Vec<NodeId> = primaries
                .iter()
                .copied()
                .filter(|&v| self.engine.sim().is_crashed(v))
                .collect();
            if dead.is_empty() {
                continue;
            }
            let mut exclude = primaries.clone();
            for attempt in 0..dead.len() as u32 {
                if let Some(backup) = hasher.rehash(port, attempt, &exclude) {
                    if !self.engine.sim().is_crashed(backup) {
                        self.engine.post_at(home, port, vec![backup]);
                        repairs += 1;
                    }
                    exclude.push(backup);
                }
            }
        }
        self.engine.run();
        repairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_topo::gen;

    fn port(name: &str) -> Port {
        Port::from_name(name)
    }

    #[test]
    fn hash_locate_costs_constant_messages() {
        let n = 128;
        let mut rt = HashLocateRuntime::new(gen::complete(n), 1, CostModel::Uniform);
        let p = port("printer");
        rt.register_server(NodeId::new(3), p);
        let before = rt.engine().metrics().message_passes;
        let res = rt.locate_with_rehash(NodeId::new(100), p, 1);
        assert!(matches!(res.outcome, LocateOutcome::Found { .. }));
        let cost = rt.engine().metrics().message_passes - before;
        assert_eq!(cost, 2, "one query + one hit, independent of n");
    }

    #[test]
    fn all_replicas_crashed_takes_out_the_service() {
        let n = 32;
        let mut rt = HashLocateRuntime::new(gen::complete(n), 2, CostModel::Uniform);
        let p = port("db");
        rt.register_server(NodeId::new(0), p);
        for v in rt.engine().resolver().rendezvous_nodes(p) {
            rt.engine_mut().crash(v);
        }
        let res = rt.locate_with_rehash(NodeId::new(9), p, 1);
        assert!(
            !matches!(res.outcome, LocateOutcome::Found { .. }),
            "the paper's fragility: service gone"
        );
    }

    #[test]
    fn rehash_with_repair_recovers_service() {
        let n = 32;
        let mut rt = HashLocateRuntime::new(gen::complete(n), 1, CostModel::Uniform);
        let p = port("db");
        rt.register_server(NodeId::new(0), p);
        // crash the only rendezvous node
        let primary = rt.engine().resolver().rendezvous_nodes(p)[0];
        rt.engine_mut().crash(primary);
        // without repair: locate fails even with rehash (backup is empty)
        let res = rt.locate_with_rehash(NodeId::new(9), p, 3);
        assert!(!matches!(res.outcome, LocateOutcome::Found { .. }));
        // server polls, notices, posts at the backup
        let repairs = rt.poll_and_repair();
        assert!(repairs >= 1);
        // now the rehashing client succeeds
        let res = rt.locate_with_rehash(NodeId::new(9), p, 3);
        assert!(
            matches!(res.outcome, LocateOutcome::Found { addr, .. } if addr == NodeId::new(0)),
            "recovered: {res:?}"
        );
        assert!(res.attempts >= 2, "needed at least one rehash");
    }

    /// §5's repair is one post at each backup: with the home node off
    /// every backup, that is one pass per repair and nothing dropped (the
    /// dead primaries are not posted to again).
    #[test]
    fn each_repair_is_one_post_at_its_backup() {
        for (n, r, dead) in [(32, 1, 1), (64, 3, 1), (64, 3, 2)] {
            let mut rt = HashLocateRuntime::new(gen::complete(n), r, CostModel::Uniform);
            let p = port("db");
            let primaries = rt.engine().resolver().rendezvous_nodes(p);
            let mut taken = primaries.clone();
            for attempt in 0..dead as u32 {
                let backup = rt.engine().resolver().rehash(p, attempt, &taken).unwrap();
                taken.push(backup);
            }
            let home = (0..n as u32)
                .map(NodeId::new)
                .find(|v| !taken.contains(v))
                .unwrap();
            rt.register_server(home, p);
            for &v in &primaries[..dead] {
                rt.engine_mut().crash(v);
            }
            let before = rt.engine().metrics().clone();
            let repairs = rt.poll_and_repair();
            let m = rt.engine().metrics().clone().delta(&before);
            let at = format!("n = {n}, r = {r}, {dead} dead");
            assert_eq!(repairs, dead, "{at}");
            assert_eq!(m.message_passes, repairs as u64, "{at}");
            assert_eq!(m.dropped, 0, "{at}");
        }
    }

    /// The client rehashes onto the backup the server repaired onto: with
    /// both primaries and the first backup down, the server posts at the
    /// second backup, and the client must not ask the dead first one
    /// again. And when rehashing runs out, the attempts reported are the
    /// ones made.
    #[test]
    fn the_client_walks_the_servers_backup_sequence() {
        let n = 16;
        for name in ["svc-27", "svc-34", "svc-61"] {
            let mut rt = HashLocateRuntime::new(gen::complete(n), 2, CostModel::Uniform);
            let p = port(name);
            let primaries = rt.engine().resolver().rendezvous_nodes(p);
            let mut taken = primaries.clone();
            for attempt in 0..2 {
                let backup = rt.engine().resolver().rehash(p, attempt, &taken).unwrap();
                taken.push(backup);
            }
            let mut free = (0..n as u32)
                .map(NodeId::new)
                .filter(|v| !taken.contains(v));
            let (home, client) = (free.next().unwrap(), free.next_back().unwrap());
            rt.register_server(home, p);
            for &v in &taken[..3] {
                rt.engine_mut().crash(v);
            }
            assert_eq!(
                rt.poll_and_repair(),
                1,
                "{name}: posted at the second backup"
            );
            let res = rt.locate_with_rehash(client, p, 3);
            assert!(
                matches!(res.outcome, LocateOutcome::Found { addr, .. } if addr == home),
                "{name}: {res:?}"
            );
            assert_eq!(res.attempts, 3, "{name}");
        }

        // n = r = 2: the primaries are every node, so there is no backup
        let mut rt = HashLocateRuntime::new(gen::complete(2), 2, CostModel::Uniform);
        let p = port("svc");
        rt.register_server(NodeId::new(0), p);
        rt.engine_mut().crash(NodeId::new(1));
        let res = rt.locate_with_rehash(NodeId::new(0), p, 5);
        assert!(!matches!(res.outcome, LocateOutcome::Found { .. }));
        assert_eq!(res.attempts, 1, "one attempt made, then rehash ran out");
    }

    #[test]
    fn replication_tolerates_partial_crashes_without_rehash() {
        let n = 64;
        let mut rt = HashLocateRuntime::new(gen::complete(n), 3, CostModel::Uniform);
        let p = port("svc");
        rt.register_server(NodeId::new(5), p);
        let replicas = rt.engine().resolver().rendezvous_nodes(p);
        rt.engine_mut().crash(replicas[0]);
        let res = rt.locate_with_rehash(NodeId::new(20), p, 1);
        // outcome is Unresolved (one replica silent) but the best answer
        // is correct — or Found if the crashed one was queried last; both
        // must carry the right address
        let addr = match res.outcome {
            LocateOutcome::Found { addr, .. } => Some(addr),
            LocateOutcome::Unresolved { best, .. } => best.map(|(a, _)| a),
            _ => None,
        };
        assert_eq!(addr, Some(NodeId::new(5)));
    }
}
