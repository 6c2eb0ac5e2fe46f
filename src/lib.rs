//! # match-making — distributed match-making for processes in computer networks
//!
//! A full reproduction of **Mullender & Vitányi, "Distributed Match-Making
//! for Processes in Computer Networks" (PODC 1985)** as a Rust workspace:
//!
//! * [`core`] (re-export of `mm-core`) — the theory: strategies
//!   (`P, Q : U → 2^U`), rendezvous matrices, the `m(n) ≥ (2/n)·Σ√k_i`
//!   lower bound, the checkerboard and lifting constructions, robustness
//!   combinators, Hash Locate.
//! * [`topo`] (`mm-topo`) — every network family the paper analyses, plus
//!   routing, spanning/multicast cost accounting and the `√n`
//!   decomposition of general graphs.
//! * [`sim`] (`mm-sim`) — the deterministic hop-counting simulator.
//! * [`proto`] (`mm-proto`) — the name-server protocols: Shotgun Locate,
//!   Hash Locate with rehash, Lighthouse Locate, the Amoeba-style service
//!   model, and a threaded live runtime.
//! * [`analysis`] (`mm-analysis`) — statistics and scaling fits for the
//!   experiment harness.
//!
//! # Quick start
//!
//! ```
//! use match_making::prelude::*;
//!
//! // a 64-node network with the truly distributed name server
//! let n = 64;
//! let mut net = ServiceNet::new(
//!     gen::complete(n),
//!     Checkerboard::new(n),
//!     CostModel::Uniform,
//! );
//! net.start_service(NodeId::new(3), "file-server");
//!
//! // any client can find and call it, in ~2*sqrt(n) messages
//! let reply = net.call(NodeId::new(60), "file-server", 41).unwrap();
//! assert_eq!(reply, 42);
//!
//! // ... even after it migrates
//! net.migrate_service("file-server", NodeId::new(3), NodeId::new(40));
//! assert_eq!(net.call(NodeId::new(60), "file-server", 1).unwrap(), 2);
//! ```

#![forbid(unsafe_code)]

pub use mm_analysis as analysis;
pub use mm_core as core;
pub use mm_proto as proto;
pub use mm_sim as sim;
pub use mm_topo as topo;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use mm_core::strategies::{
        Blocks, Broadcast, CccStrategy, Centralized, Checkerboard, DecomposedStrategy,
        GridRowColumn, HashLocate, HierarchicalStrategy, HypercubeSplit, MeshSplit, PortMapped,
        ProjectiveStrategy, Sweep, TreePathToRoot,
    };
    pub use mm_core::{bounds, Port, RendezvousMatrix, Strategy};
    pub use mm_proto::service::{ServiceError, ServiceNet};
    pub use mm_proto::{LocateOutcome, ShotgunEngine};
    pub use mm_sim::{CostModel, Metrics, Sim};
    pub use mm_topo::{gen, AnyRouter, Decomposition, Graph, NodeId, Router, RoutingTable};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let s = Checkerboard::new(9);
        assert_eq!(Strategy::node_count(&s), 9);
        let g = gen::ring(5);
        assert_eq!(g.node_count(), 5);
    }
}
