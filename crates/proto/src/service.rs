//! The Amoeba-style service model (paper §1.3).
//!
//! *"Services are offered by a number of server processes, distributed
//! over the network. Client processes send requests to services; the
//! services carry out these requests and return a reply. … a process can
//! be a client, a server, or both, and change its role dynamically."*
//!
//! [`ServiceNet`] is the application layer over the
//! [`crate::ShotgunEngine`]: named services, locate-then-
//! request calls with stale-address retry, and migration. The `call` path
//! is the paper's full pipeline: **match-making precedes routing** — first
//! locate the port, then route the request to the located address.

use crate::shotgun::{LocateOutcome, RequestOutcome, ShotgunEngine};
use mm_core::strategies::PortMapped;
use mm_core::Port;
use mm_sim::CostModel;
use mm_topo::{Graph, NodeId};
use std::fmt;

/// Errors surfaced by service calls.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// No rendezvous node returned an address for the port.
    NotLocated,
    /// A server address was located but the request found no server
    /// there (stale cache), even after retrying.
    Stale,
    /// The request was sent but no reply arrived (crashed server).
    NoReply,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::NotLocated => write!(f, "service could not be located"),
            ServiceError::Stale => write!(f, "located address was stale"),
            ServiceError::NoReply => write!(f, "no reply from the located server"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A named-service layer over the Shotgun engine.
#[derive(Debug)]
pub struct ServiceNet<PM> {
    engine: ShotgunEngine<PM>,
}

impl<PM: PortMapped> ServiceNet<PM> {
    /// Builds a service network over `graph` with the given resolver (for
    /// explicit execution axes, build on
    /// [`ShotgunEngine::with_router`] directly).
    ///
    /// # Panics
    ///
    /// Panics if the resolver universe differs from the graph size.
    pub fn new(graph: Graph, resolver: PM, cost_model: CostModel) -> Self {
        ServiceNet {
            engine: ShotgunEngine::new(graph, resolver, cost_model),
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &ShotgunEngine<PM> {
        &self.engine
    }

    /// Mutable engine access (crash injection in tests/experiments).
    pub fn engine_mut(&mut self) -> &mut ShotgunEngine<PM> {
        &mut self.engine
    }

    /// Starts a server for the named service at `at`.
    pub fn start_service(&mut self, at: NodeId, name: &str) -> Port {
        let port = Port::from_name(name);
        self.engine.register_server(at, port);
        self.engine.run();
        port
    }

    /// Stops the named service at `at` (withdraws postings).
    pub fn stop_service(&mut self, at: NodeId, name: &str) {
        self.engine.deregister_server(at, Port::from_name(name));
        self.engine.run();
    }

    /// Migrates the named service. Old cache entries become stale; the
    /// fresh posting carries a newer timestamp.
    pub fn migrate_service(&mut self, name: &str, from: NodeId, to: NodeId) {
        self.engine.migrate_server(Port::from_name(name), from, to);
        self.engine.run();
    }

    /// Locates the named service from `client`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NotLocated`] when no rendezvous knows the port.
    pub fn locate(&mut self, client: NodeId, name: &str) -> Result<NodeId, ServiceError> {
        let port = Port::from_name(name);
        let h = self.engine.locate(client, port);
        self.engine.run();
        match self.engine.outcome(h) {
            LocateOutcome::Found { addr, .. } => Ok(addr),
            LocateOutcome::Unresolved {
                best: Some((addr, _)),
                ..
            } => Ok(addr),
            _ => Err(ServiceError::NotLocated),
        }
    }

    /// Like [`ServiceNet::locate`], but also returns the rendezvous nodes
    /// where the query met the advertisement — the realized `P ∩ Q`
    /// intersection, `|meets| = m(P,Q)` with fresh postings. Unresolved
    /// locates that still produced a best address return empty meets.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NotLocated`] when no rendezvous knows the port.
    pub fn locate_with_meets(
        &mut self,
        client: NodeId,
        name: &str,
    ) -> Result<(NodeId, Vec<NodeId>), ServiceError> {
        let port = Port::from_name(name);
        let h = self.engine.locate(client, port);
        self.engine.run();
        match self.engine.outcome(h) {
            LocateOutcome::Found { addr, meets, .. } => Ok((addr, meets)),
            LocateOutcome::Unresolved {
                best: Some((addr, _)),
                ..
            } => Ok((addr, Vec::new())),
            _ => Err(ServiceError::NotLocated),
        }
    }

    /// Full client call: locate the service, send `body`, await the reply.
    /// On a stale address (server just migrated away), re-locates once and
    /// retries — the recovery loop of §1.3's query-server example.
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`] on failure.
    pub fn call(&mut self, client: NodeId, name: &str, body: u64) -> Result<u64, ServiceError> {
        let port = Port::from_name(name);
        let mut addr = self.locate(client, name)?;
        for _attempt in 0..2 {
            let id = self.engine.request(client, addr, port, body);
            self.engine.run();
            match self.engine.request_outcome(client, id) {
                Some(RequestOutcome::Replied { body, .. }) => return Ok(body),
                Some(RequestOutcome::StaleAddress) => {
                    // stale cache: re-locate (the fresh post wins) and retry
                    addr = self.locate(client, name)?;
                }
                None => return Err(ServiceError::NoReply),
            }
        }
        Err(ServiceError::Stale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_core::strategies::Checkerboard;
    use mm_topo::gen;

    fn net(n: usize) -> ServiceNet<Checkerboard> {
        ServiceNet::new(gen::complete(n), Checkerboard::new(n), CostModel::Uniform)
    }

    #[test]
    fn call_roundtrip() {
        let mut net = net(16);
        net.start_service(NodeId::new(3), "adder");
        let got = net.call(NodeId::new(12), "adder", 41).unwrap();
        assert_eq!(got, 42, "the toy service echoes body + 1");
    }

    #[test]
    fn locate_with_meets_reports_the_intersection() {
        let mut net = net(16);
        net.start_service(NodeId::new(3), "adder");
        let (addr, meets) = net.locate_with_meets(NodeId::new(12), "adder").unwrap();
        assert_eq!(addr, NodeId::new(3));
        assert_eq!(meets.len(), 1, "checkerboard meets at exactly one node");
    }

    #[test]
    fn call_unknown_service_fails() {
        let mut net = net(9);
        assert_eq!(
            net.call(NodeId::new(0), "nothing", 1),
            Err(ServiceError::NotLocated)
        );
    }

    #[test]
    fn migration_is_transparent_to_callers() {
        let mut net = net(25);
        net.start_service(NodeId::new(2), "db");
        assert_eq!(net.call(NodeId::new(20), "db", 1).unwrap(), 2);
        net.migrate_service("db", NodeId::new(2), NodeId::new(17));
        assert_eq!(
            net.call(NodeId::new(20), "db", 5).unwrap(),
            6,
            "call after migration must succeed via fresh postings"
        );
        assert_eq!(net.locate(NodeId::new(20), "db").unwrap(), NodeId::new(17));
    }

    #[test]
    fn stopped_service_is_gone() {
        let mut net = net(16);
        net.start_service(NodeId::new(4), "tmp");
        net.stop_service(NodeId::new(4), "tmp");
        assert_eq!(
            net.call(NodeId::new(1), "tmp", 0),
            Err(ServiceError::NotLocated)
        );
    }

    #[test]
    fn crashed_server_yields_no_reply() {
        let mut net = net(16);
        // server 5 (band 1) and client 8 (band 2) rendezvous at node 6,
        // so the advertisement survives the server's crash
        net.start_service(NodeId::new(5), "svc");
        net.engine_mut().crash(NodeId::new(5));
        let res = net.call(NodeId::new(8), "svc", 0);
        assert_eq!(res, Err(ServiceError::NoReply));
    }

    #[test]
    fn server_that_is_its_own_rendezvous_vanishes_on_crash() {
        let mut net = net(16);
        // server 4 is the rendezvous node for clients in band 0, so
        // crashing it leaves those clients unable to locate at all
        net.start_service(NodeId::new(4), "svc");
        net.engine_mut().crash(NodeId::new(4));
        let res = net.call(NodeId::new(1), "svc", 0);
        assert_eq!(res, Err(ServiceError::NotLocated));
    }

    #[test]
    fn service_hierarchy_servers_are_clients_too() {
        // the paper's query-server -> database-server chain: a node that
        // serves one port calls another service to do its work
        let mut net = net(16);
        net.start_service(NodeId::new(3), "database");
        net.start_service(NodeId::new(7), "query");
        // the query server (node 7) acts as a *client* of the database
        let db_result = net.call(NodeId::new(7), "database", 10).unwrap();
        assert_eq!(db_result, 11);
        // and an end client still reaches the query service itself
        assert_eq!(net.call(NodeId::new(0), "query", db_result).unwrap(), 12);
    }
}
