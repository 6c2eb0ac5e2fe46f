//! # mm-topo — network-topology substrate for distributed match-making
//!
//! This crate provides the graph machinery that the match-making theory of
//! Mullender & Vitányi (PODC 1985) is exercised on:
//!
//! * [`Graph`] — a compact undirected graph with adjacency lists,
//! * [`routing`] — BFS shortest paths and all-pairs next-hop routing tables
//!   (the paper assumes "each node has a table containing the names of all
//!   other nodes together with the minimum cost to reach them and the
//!   neighbor at which the minimum cost path starts"),
//! * [`router`] — the [`Router`] trait with closed-form, O(1)-memory
//!   next-hop routing for the structured families (ring, grid, torus,
//!   hypercube, complete), byte-conformant to the [`RoutingTable`] oracle,
//! * [`spanning`] — spanning-tree broadcast and multicast (Steiner) cost
//!   accounting in *message passes*, the paper's complexity unit,
//! * [`decompose`] — the Erdős–Gerencsér–Máté style division of a connected
//!   graph into `O(√n)` disjoint connected subgraphs of `≈√n` nodes each
//!   (paper §3, used by the general-network locate algorithm),
//! * [`gen`] — generators for every topology the paper analyses: complete
//!   graphs, rings, Manhattan grids and tori, d-dimensional meshes, binary
//!   hypercubes, cube-connected cycles, projective planes `PG(2,k)`,
//!   balanced and degree-profile trees, hierarchical networks and synthetic
//!   UUCP-like networks,
//! * [`gf`] — `GF(p)` arithmetic backing the projective-plane construction.
//!
//! # Example
//!
//! ```
//! use mm_topo::{gen, routing::RoutingTable};
//!
//! let g = gen::hypercube(4); // 16 nodes
//! assert_eq!(g.node_count(), 16);
//! let rt = RoutingTable::new(&g);
//! // opposite corners of a 4-cube are 4 hops apart
//! assert_eq!(rt.distance(0u32.into(), 15u32.into()), Some(4));
//! ```

#![forbid(unsafe_code)]

pub mod decompose;
pub mod gen;
pub mod gf;
pub mod graph;
pub mod props;
pub mod router;
pub mod routing;
pub mod spanning;

pub use decompose::Decomposition;
pub use gen::projective::ProjectivePlane;
pub use graph::{Graph, NodeId, TopoError};
pub use router::{AnyRouter, Router};
pub use routing::RoutingTable;
