//! The match-making wire protocol.
//!
//! Messages carry a logical timestamp (`stamp`) so rendezvous caches can
//! resolve conflicts — *"we can timestamp the messages to determine which
//! addresses are out of date in case of a conflict"* (§2.1).

use mm_core::Port;
use mm_sim::TargetSet;
use mm_topo::NodeId;

/// All messages exchanged by the name-server protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoMsg {
    /// Driver command: post `(port, addr)` at each node in `targets`
    /// (the server's `P(i)` — or Hash Locate's `P(π)`).
    DoPost {
        /// The service port being advertised.
        port: Port,
        /// The server's current address.
        addr: NodeId,
        /// Logical timestamp for staleness resolution.
        stamp: u64,
        /// The posting set (shared: clones are refcount bumps).
        targets: TargetSet,
    },
    /// Driver command: remove `(port, addr)` from `targets` (graceful
    /// shutdown or migration).
    DoUnpost {
        /// The service port.
        port: Port,
        /// The address being withdrawn.
        addr: NodeId,
        /// Timestamp; only entries at least this old are withdrawn.
        stamp: u64,
        /// The set posted to previously (shared).
        targets: TargetSet,
    },
    /// Driver command: query each node in `targets` (the client's `Q(j)`)
    /// for `port`.
    DoLocate {
        /// The wanted service port.
        port: Port,
        /// Locate-operation id (unique per engine).
        locate_id: u64,
        /// The query set (shared).
        targets: TargetSet,
    },
    /// Driver command: send an application request from this node to a
    /// located server address (charging the route's message passes).
    DoRequest {
        /// Destination service.
        port: Port,
        /// The located server address.
        addr: NodeId,
        /// Opaque request body.
        body: u64,
        /// Correlation id.
        request_id: u64,
    },
    /// A server's advertisement, cached by rendezvous nodes.
    Post {
        /// Advertised port.
        port: Port,
        /// Advertised address.
        addr: NodeId,
        /// Advertisement timestamp.
        stamp: u64,
    },
    /// Withdrawal of an advertisement.
    Unpost {
        /// Withdrawn port.
        port: Port,
        /// Withdrawn address.
        addr: NodeId,
        /// Withdrawal timestamp.
        stamp: u64,
    },
    /// A client's question to a would-be rendezvous node.
    Query {
        /// Wanted port.
        port: Port,
        /// Node to answer to.
        reply_to: NodeId,
        /// Locate-operation id echoed in the answer.
        locate_id: u64,
    },
    /// Rendezvous answer: the port is known to be at `addr`.
    Hit {
        /// The port asked about.
        port: Port,
        /// Cached server address.
        addr: NodeId,
        /// Cache entry timestamp (newer wins at the client).
        stamp: u64,
        /// Echoed locate id.
        locate_id: u64,
        /// The rendezvous node that answered — lets clients (and the
        /// trace layer) observe the realized `P ∩ Q` intersection.
        at: NodeId,
    },
    /// Rendezvous answer: nothing cached for the port.
    Miss {
        /// The port asked about.
        port: Port,
        /// Echoed locate id.
        locate_id: u64,
    },
    /// Application request to a (located) server address.
    Request {
        /// Destination service.
        port: Port,
        /// Node to send the reply to.
        reply_to: NodeId,
        /// Opaque request body.
        body: u64,
        /// Client-chosen correlation id.
        request_id: u64,
    },
    /// Server's answer to a [`ProtoMsg::Request`].
    Reply {
        /// The service that answered.
        port: Port,
        /// Opaque response body.
        body: u64,
        /// Echoed correlation id.
        request_id: u64,
    },
    /// "No such server here" — the cached address was stale.
    NotHere {
        /// The port that is not served at the answering node.
        port: Port,
        /// Echoed correlation id.
        request_id: u64,
    },
}

impl ProtoMsg {
    /// The driver command that posts (`on`) or withdraws `(port, addr)` at
    /// `targets` under `stamp` — what either host sends to advertise.
    pub(crate) fn advertise(
        on: bool,
        port: Port,
        addr: NodeId,
        stamp: u64,
        targets: TargetSet,
    ) -> Self {
        if on {
            ProtoMsg::DoPost {
                port,
                addr,
                stamp,
                targets,
            }
        } else {
            ProtoMsg::DoUnpost {
                port,
                addr,
                stamp,
                targets,
            }
        }
    }
}
