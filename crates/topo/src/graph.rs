//! Undirected graph with compact adjacency lists.
//!
//! The paper models a store-and-forward network as an undirected
//! communications graph `G = (U, E)`: nodes are processors, edges are
//! bidirectional non-interfering channels. A *message pass* (hop) is the
//! transmission of a message across one edge. [`Graph`] is the substrate all
//! other crates build on.

use std::fmt;

/// Identifier of a network node (a processor in the paper's model).
///
/// A thin newtype over `u32` so node identity cannot be confused with hop
/// counts, labels, part indices etc. (cf. C-NEWTYPE).
///
/// # Example
///
/// ```
/// use mm_topo::NodeId;
/// let a = NodeId::new(7);
/// assert_eq!(a.index(), 7);
/// assert_eq!(NodeId::from(7u32), a);
/// ```
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
#[serde(transparent)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from a raw index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the raw index as `usize`, for array indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw index as `u32`.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    /// # Panics
    ///
    /// Panics if `v` does not fit in `u32`.
    fn from(v: usize) -> Self {
        NodeId(u32::try_from(v).expect("node index exceeds u32::MAX"))
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

impl From<NodeId> for usize {
    fn from(v: NodeId) -> Self {
        v.index()
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Errors produced while constructing or manipulating topologies.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopoError {
    /// A node index referenced a node outside `0..node_count`.
    NodeOutOfRange {
        /// The offending index.
        node: u32,
        /// The number of nodes in the graph.
        node_count: usize,
    },
    /// A self-loop `(v, v)` was rejected; the paper's networks are simple.
    SelfLoop {
        /// The node with the attempted self-loop.
        node: u32,
    },
    /// A generator received an invalid parameter (e.g. `PG(2,k)` with
    /// non-prime `k`, or an empty grid side).
    InvalidParameter {
        /// Human-readable description of the violated requirement.
        reason: String,
    },
    /// An operation that requires a connected graph was given a
    /// disconnected one.
    Disconnected,
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoError::NodeOutOfRange { node, node_count } => {
                write!(
                    f,
                    "node index {node} out of range for graph with {node_count} nodes"
                )
            }
            TopoError::SelfLoop { node } => write!(f, "self-loop at node {node} rejected"),
            TopoError::InvalidParameter { reason } => write!(f, "invalid parameter: {reason}"),
            TopoError::Disconnected => write!(f, "operation requires a connected graph"),
        }
    }
}

impl std::error::Error for TopoError {}

/// An undirected simple graph over nodes `0..n`.
///
/// Stored as per-node sorted adjacency lists, allocated with the first
/// edge: a graph that never had one (the shell an analytic router stands
/// in for) holds its node count and nothing per node. Edge insertion is
/// idempotent: inserting an existing edge is a no-op that reports `false`.
/// Two graphs are equal when their names, node counts and edge sets are.
///
/// # Example
///
/// ```
/// use mm_topo::{Graph, NodeId};
///
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
/// g.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
/// assert!(!g.has_edge(NodeId::new(0), NodeId::new(2)));
/// ```
#[derive(Debug, Clone, Eq, serde::Serialize, serde::Deserialize)]
pub struct Graph {
    n: usize,
    /// One list per node once any edge was added, empty before.
    adj: Vec<Vec<u32>>,
    edge_count: usize,
    name: String,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.edge_count == other.edge_count
            && self.name == other.name
            // with no edges on either side, one may hold empty lists
            && (self.edge_count == 0 || self.adj == other.adj)
    }
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph::with_name(n, "graph")
    }

    /// Creates a named graph with `n` isolated nodes. The name is reported
    /// by experiment harnesses and `Display`.
    pub fn with_name(n: usize, name: impl Into<String>) -> Self {
        Graph {
            n,
            adj: Vec::new(),
            edge_count: 0,
            name: name.into(),
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::NodeOutOfRange`] or [`TopoError::SelfLoop`] on
    /// the first offending pair.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, TopoError>
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut g = Graph::new(n);
        for (a, b) in edges {
            g.add_edge(NodeId::new(a), NodeId::new(b))?;
        }
        Ok(g)
    }

    /// Returns the topology name (e.g. `"hypercube(6)"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replaces the topology name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of nodes `n = #U`.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges `#E`.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterates over all node identifiers `0..n`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.n as u32).map(NodeId::new)
    }

    /// Iterates over all edges as `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj.iter().enumerate().flat_map(|(a, nbrs)| {
            nbrs.iter()
                .filter(move |&&b| (a as u32) < b)
                .map(move |&b| (NodeId::new(a as u32), NodeId::new(b)))
        })
    }

    /// Validates that `v` indexes a node of this graph.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::NodeOutOfRange`] otherwise.
    pub fn check_node(&self, v: NodeId) -> Result<(), TopoError> {
        if v.index() < self.n {
            Ok(())
        } else {
            Err(TopoError::NodeOutOfRange {
                node: v.raw(),
                node_count: self.n,
            })
        }
    }

    /// Inserts the undirected edge `{a, b}`.
    ///
    /// Returns `true` if the edge was newly inserted, `false` if it already
    /// existed (insertion is idempotent).
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::SelfLoop`] if `a == b` and
    /// [`TopoError::NodeOutOfRange`] if either endpoint is invalid.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, TopoError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(TopoError::SelfLoop { node: a.raw() });
        }
        Ok(self.add_edge_unchecked(a, b))
    }

    /// [`add_edge`](Self::add_edge) for a generator whose edges are valid
    /// by construction: both endpoints in range and distinct. The checks
    /// run in debug builds only.
    pub(crate) fn add_edge_unchecked(&mut self, a: NodeId, b: NodeId) -> bool {
        debug_assert!(
            self.check_node(a).is_ok() && self.check_node(b).is_ok() && a != b,
            "generated edge {{{a}, {b}}} is invalid on {} nodes",
            self.n
        );
        if self.adj.is_empty() {
            self.adj = vec![Vec::new(); self.n];
        }
        let added = self.link(a, b, true);
        if added {
            let mirrored = self.link(b, a, true);
            debug_assert!(mirrored, "adjacency lists out of sync");
            self.edge_count += 1;
        }
        added
    }

    /// Puts `to` into `from`'s sorted list, or takes it out; reports
    /// whether the list changed. Only for a graph whose lists exist.
    fn link(&mut self, from: NodeId, to: NodeId, present: bool) -> bool {
        let list = &mut self.adj[from.index()];
        match (list.binary_search(&to.raw()), present) {
            (Err(pos), true) => list.insert(pos, to.raw()),
            (Ok(pos), false) => {
                list.remove(pos);
            }
            _ => return false,
        }
        true
    }

    /// Removes the undirected edge `{a, b}` if present; reports whether an
    /// edge was removed.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::NodeOutOfRange`] if either endpoint is invalid.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, TopoError> {
        self.check_node(a)?;
        self.check_node(b)?;
        let removed = !self.adj.is_empty() && self.link(a, b, false);
        if removed {
            let mirrored = self.link(b, a, false);
            debug_assert!(mirrored, "adjacency lists out of sync");
            self.edge_count -= 1;
        }
        Ok(removed)
    }

    /// Returns `true` if the undirected edge `{a, b}` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.adj
            .get(a.index())
            .is_some_and(|nbrs| nbrs.binary_search(&b.raw()).is_ok())
    }

    /// The sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> &[u32] {
        if self.adj.is_empty() {
            assert!(
                v.index() < self.n,
                "node {v} out of range for graph with {} nodes",
                self.n
            );
            return &[];
        }
        &self.adj[v.index()]
    }

    /// Iterates over the neighbors of `v` as [`NodeId`]s.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbor_ids(&self, v: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.neighbors(v).iter().map(|&u| NodeId::new(u))
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Returns the subgraph induced by `keep` (nodes renumbered `0..k` in
    /// the order given), together with the mapping from new to old ids.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::NodeOutOfRange`] if any listed node is invalid.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> Result<(Graph, Vec<NodeId>), TopoError> {
        for &v in keep {
            self.check_node(v)?;
        }
        let mut old_to_new = vec![u32::MAX; self.n];
        for (new, &old) in keep.iter().enumerate() {
            old_to_new[old.index()] = new as u32;
        }
        let mut g = Graph::with_name(keep.len(), format!("{}[induced]", self.name));
        for (new_a, &old_a) in keep.iter().enumerate() {
            for &old_b in self.neighbors(old_a) {
                let new_b = old_to_new[old_b as usize];
                if new_b != u32::MAX && (new_a as u32) < new_b {
                    g.add_edge_unchecked(NodeId::new(new_a as u32), NodeId::new(new_b));
                }
            }
        }
        Ok((g, keep.to_vec()))
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (n={}, m={})",
            self.name,
            self.node_count(),
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(n(0), n(1)).unwrap());
        assert!(g.add_edge(n(1), n(2)).unwrap());
        assert!(!g.add_edge(n(1), n(0)).unwrap(), "idempotent re-insert");
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(n(0), n(1)));
        assert!(g.has_edge(n(1), n(0)));
        assert!(!g.has_edge(n(0), n(3)));
        assert_eq!(g.neighbors(n(1)), &[0, 2]);
        assert_eq!(g.degree(n(1)), 2);
        assert_eq!(g.degree(n(3)), 0);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        assert_eq!(g.add_edge(n(1), n(1)), Err(TopoError::SelfLoop { node: 1 }));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = Graph::new(2);
        let err = g.add_edge(n(0), n(5)).unwrap_err();
        assert_eq!(
            err,
            TopoError::NodeOutOfRange {
                node: 5,
                node_count: 2
            }
        );
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn remove_edge_roundtrip() {
        let mut g = Graph::new(3);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        assert!(g.remove_edge(n(0), n(1)).unwrap());
        assert!(!g.remove_edge(n(0), n(1)).unwrap());
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(n(0), n(1)));
        assert!(g.has_edge(n(1), n(2)));
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let mut g = Graph::new(4);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(2), n(1)).unwrap();
        g.add_edge(n(3), n(0)).unwrap();
        let mut edges: Vec<_> = g.edges().map(|(a, b)| (a.raw(), b.raw())).collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn from_edges_builder() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(Graph::from_edges(2, [(0, 3)]).is_err());
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let mut g = Graph::new(5);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)] {
            g.add_edge(n(a), n(b)).unwrap();
        }
        let (sub, map) = g.induced_subgraph(&[n(1), n(2), n(3)]).unwrap();
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2); // 1-2 and 2-3 survive
        assert!(sub.has_edge(n(0), n(1)));
        assert!(sub.has_edge(n(1), n(2)));
        assert!(!sub.has_edge(n(0), n(2)));
        assert_eq!(map, vec![n(1), n(2), n(3)]);
    }

    #[test]
    fn an_edgeless_graph_equals_one_whose_edges_were_removed() {
        let fresh = Graph::new(3);
        let mut emptied = Graph::new(3);
        emptied.add_edge(n(0), n(2)).unwrap();
        assert_ne!(fresh, emptied);
        emptied.remove_edge(n(2), n(0)).unwrap();
        assert_eq!(fresh, emptied);
        assert_eq!(emptied.neighbors(n(0)), &[] as &[u32]);
        assert_ne!(fresh, Graph::new(4), "node counts differ");
        assert_ne!(fresh, Graph::with_name(3, "other"), "names differ");
        let mut other_edge = Graph::new(3);
        other_edge.add_edge(n(0), n(1)).unwrap();
        emptied.add_edge(n(1), n(2)).unwrap();
        assert_ne!(emptied, other_edge, "same counts, different edges");
    }

    #[test]
    fn an_edgeless_shell_has_nodes_but_no_neighbors() {
        let mut g = Graph::new(4);
        assert_eq!(
            (g.node_count(), g.degree(n(3)), g.edges().count()),
            (4, 0, 0)
        );
        assert_eq!(g.neighbor_ids(n(2)).len(), 0);
        assert!(!g.has_edge(n(0), n(1)));
        assert_eq!(g.remove_edge(n(0), n(1)), Ok(false));
        assert!(g.remove_edge(n(0), n(4)).is_err());
        let (sub, map) = g.induced_subgraph(&[n(3), n(1)]).unwrap();
        assert_eq!(sub, Graph::with_name(2, "graph[induced]"));
        assert_eq!(map, vec![n(3), n(1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn neighbors_of_a_node_out_of_range_panics_on_a_shell() {
        Graph::new(2).neighbors(n(2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn neighbors_of_a_node_out_of_range_panics_on_a_graph_with_edges() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        g.neighbors(n(2));
    }

    #[test]
    fn node_id_conversions() {
        let v = NodeId::new(9);
        assert_eq!(u32::from(v), 9);
        assert_eq!(usize::from(v), 9);
        assert_eq!(NodeId::from(9usize), v);
        assert_eq!(v.to_string(), "9");
    }

    #[test]
    fn display_mentions_name_and_sizes() {
        let mut g = Graph::with_name(2, "test-net");
        g.add_edge(n(0), n(1)).unwrap();
        assert_eq!(g.to_string(), "test-net (n=2, m=1)");
    }
}
