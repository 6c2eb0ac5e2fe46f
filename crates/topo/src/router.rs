//! Next-hop routing as a *capability*, not a table.
//!
//! The paper's §3 cost model gives every node a full Dalal–Metcalfe
//! routing table — O(n²) space once materialized in [`RoutingTable`].
//! That is faithful, but it is also the one hard wall between the
//! simulator and million-node structured fabrics: a 65,536-node table is
//! already ~34 GB. For the structured generators (ring, grid, torus,
//! hypercube, complete) the table content is pure arithmetic, so this
//! module factors routing behind the [`Router`] trait and provides
//! closed-form, O(1)-memory, allocation-free implementations per family.
//!
//! Canonical tie-break. [`RoutingTable`] pins `next(s, v)` to the
//! *lowest-numbered* neighbor of `s` that starts a shortest path to `v`,
//! and every analytic router here reproduces exactly that choice. The
//! consequence is strong: any simulation driven through a [`Router`] is
//! byte-identical whether the backend is a materialized table or closed
//! forms — the table stays available as the conformance oracle for
//! arbitrary graphs (the same oracle pattern as `QueueKind::BTree`).
//!
//! [`AnyRouter::for_graph`] picks the backend by the graph's generator
//! name (`"ring(8)"`, `"grid(4x5)"`, `"torus(3x3)"`, `"hypercube(5)"`,
//! `"complete(64)"`), which means structured topologies can be built as
//! *shell* graphs — correct node count and name, zero edges — and still
//! route: nothing in the closed forms ever consults adjacency.

use crate::graph::{Graph, NodeId};
use crate::routing::RoutingTable;
use crate::spanning::greedy_cost;

/// Shortest-path next-hop routing over a fixed node universe.
///
/// Implementations must agree with the canonical [`RoutingTable`] built
/// over the same graph: identical distances and identical (lowest-numbered
/// shortest-path neighbor) next hops for every ordered pair. The
/// conformance suite proptests this for every analytic family.
pub trait Router {
    /// Number of nodes routed over.
    fn node_count(&self) -> usize;

    /// Hop distance from `a` to `b`, or `None` if unreachable.
    fn distance(&self, a: NodeId, b: NodeId) -> Option<u32>;

    /// First hop on the canonical shortest path from `a` to `b`; `None`
    /// when `a == b` or `b` is unreachable.
    fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId>;

    /// Calls `f` for each neighbor of `v`, in ascending node order.
    ///
    /// For analytic routers the neighborhood is closed-form; for a
    /// [`RoutingTable`] it is recovered as the distance-1 row (an O(n)
    /// scan — fine for the beam/reverse-path uses this serves).
    fn for_each_neighbor(&self, v: NodeId, f: &mut dyn FnMut(NodeId));

    /// Walks the canonical shortest path from `a` to `b` hop by hop,
    /// yielding each node *after* `a` (the final item is `b`).
    /// Allocation-free; empty when `a == b` or `b` is unreachable.
    fn hops(&self, a: NodeId, b: NodeId) -> RouteWalk<'_, Self>
    where
        Self: Sized,
    {
        RouteWalk {
            router: self,
            cur: a,
            dest: b,
        }
    }

    /// Walks the canonical path from `a` toward `b` until it steps into a
    /// node `v` with `flagged[v]` set: `(hops into that node, true)`, or
    /// `(distance, false)` when every node after `a` is clear. This is
    /// how far a message gets before a crashed node swallows it.
    fn hops_until_flagged(&self, a: NodeId, b: NodeId, flagged: &[bool]) -> (u32, bool)
    where
        Self: Sized,
    {
        let mut travelled = 0;
        for hop in self.hops(a, b) {
            travelled += 1;
            if flagged[hop.index()] {
                return (travelled, true);
            }
        }
        (travelled, false)
    }

    /// Message passes to multicast from `src` to `sorted` (strictly
    /// ascending; `src` itself, if present, is skipped): the number the
    /// nearest-anchor greedy of [`multicast_cost`] arrives at, first-scanned
    /// tie rule included. The provided body *is* that greedy — full anchor
    /// scan, walked paths — which is what the table backend runs. The
    /// analytic routers override it with forms that return the same number
    /// for less: closed forms on the ring and the complete network, index
    /// arithmetic and a division-free walk on grid and torus, an
    /// adjacent-anchor shortcut on the hypercube. Callers go through
    /// [`multicast_cost`], which canonicalizes its input and cross-checks
    /// overrides in debug builds.
    ///
    /// [`multicast_cost`]: crate::spanning::multicast_cost
    fn multicast_cost_sorted(&self, src: NodeId, sorted: &[NodeId]) -> Option<u64>
    where
        Self: Sized,
    {
        greedy_cost(self, src, sorted, false)
    }

    /// The §4 reverse-path trick (Dalal–Metcalfe tables "back-to-front"):
    /// the neighbors `u` of `v` whose canonical route to `origin` starts
    /// with `v`. Walking such edges moves strictly *away* from the origin,
    /// which is what simulates a straight-line beam — and it needs no
    /// materialized graph, only `next_hop` and the neighborhood.
    fn reverse_next_hops(&self, origin: NodeId, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_neighbor(v, &mut |u| {
            if self.next_hop(u, origin) == Some(v) {
                out.push(u);
            }
        });
        out
    }
}

/// Allocation-free shortest-path walk produced by [`Router::hops`].
#[derive(Debug, Clone)]
pub struct RouteWalk<'a, R> {
    router: &'a R,
    cur: NodeId,
    dest: NodeId,
}

impl<R: Router> Iterator for RouteWalk<'_, R> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.cur == self.dest {
            return None;
        }
        self.cur = self.router.next_hop(self.cur, self.dest)?;
        Some(self.cur)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.router.distance(self.cur, self.dest) {
            Some(d) => (d as usize, Some(d as usize)),
            None => (0, Some(0)),
        }
    }
}

impl Router for RoutingTable {
    fn node_count(&self) -> usize {
        RoutingTable::node_count(self)
    }

    fn distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        RoutingTable::distance(self, a, b)
    }

    fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        RoutingTable::next_hop(self, a, b)
    }

    fn for_each_neighbor(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        let n = RoutingTable::node_count(self);
        for u in 0..n as u32 {
            if RoutingTable::distance(self, v, NodeId::new(u)) == Some(1) {
                f(NodeId::new(u));
            }
        }
    }
}

/// K_n: every pair at distance 1; the next hop *is* the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompleteRouter {
    n: u32,
}

impl CompleteRouter {
    /// Router for `complete(n)`.
    pub fn new(n: usize) -> Self {
        CompleteRouter { n: n as u32 }
    }
}

impl Router for CompleteRouter {
    fn node_count(&self) -> usize {
        self.n as usize
    }

    fn distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        debug_assert!(a.raw() < self.n && b.raw() < self.n);
        Some(u32::from(a != b))
    }

    fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        debug_assert!(a.raw() < self.n && b.raw() < self.n);
        (a != b).then_some(b)
    }

    fn for_each_neighbor(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        for u in 0..self.n {
            if u != v.raw() {
                f(NodeId::new(u));
            }
        }
    }

    /// Every target hangs off `src` by its own edge.
    fn multicast_cost_sorted(&self, src: NodeId, sorted: &[NodeId]) -> Option<u64> {
        let own = sorted.binary_search(&src).is_ok();
        Some((sorted.len() - usize::from(own)) as u64)
    }
}

/// Cycle C_n (`ring(n)`): route the strictly shorter way around; on the
/// antipodal tie (even n) take the lower-numbered neighbor, matching the
/// canonical table. `ring(2)` is the single edge, `ring(1)` a lone node —
/// exactly what the generator degenerates to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingRouter {
    n: u32,
}

impl RingRouter {
    /// Router for `ring(n)`.
    pub fn new(n: usize) -> Self {
        RingRouter { n: n as u32 }
    }

    /// (forward distance, backward distance) from `a` to `b`.
    fn arcs(&self, a: u32, b: u32) -> (u32, u32) {
        let fwd = (b + self.n - a) % self.n;
        (fwd, (self.n - fwd) % self.n)
    }
}

impl Router for RingRouter {
    fn node_count(&self) -> usize {
        self.n as usize
    }

    fn distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        debug_assert!(a.raw() < self.n && b.raw() < self.n);
        let (fwd, bwd) = self.arcs(a.raw(), b.raw());
        Some(fwd.min(bwd))
    }

    fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        debug_assert!(a.raw() < self.n && b.raw() < self.n);
        if a == b {
            return None;
        }
        let (fwd, bwd) = self.arcs(a.raw(), b.raw());
        let succ = (a.raw() + 1) % self.n;
        let pred = (a.raw() + self.n - 1) % self.n;
        let hop = match fwd.cmp(&bwd) {
            std::cmp::Ordering::Less => succ,
            std::cmp::Ordering::Greater => pred,
            std::cmp::Ordering::Equal => succ.min(pred),
        };
        Some(NodeId::new(hop))
    }

    fn for_each_neighbor(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        if self.n < 2 {
            return;
        }
        let succ = (v.raw() + 1) % self.n;
        let pred = (v.raw() + self.n - 1) % self.n;
        if succ == pred {
            f(NodeId::new(succ));
        } else {
            f(NodeId::new(succ.min(pred)));
            f(NodeId::new(succ.max(pred)));
        }
    }

    /// The greedy in closed form, O(|sorted|) with no path walked.
    ///
    /// A path from a nearest anchor passes over no other anchor, so it
    /// lies inside the *gap* (arc between cyclically adjacent anchors)
    /// holding its target and runs from one end of the gap to the target:
    /// every gap is covered entirely or not at all. Targets arrive
    /// ascending, so the next one always lies in the gap just above the
    /// highest anchor below it — one flag, `ahead` — except on the first
    /// target above `src`, which enters the gap from `src` up and around
    /// to the lowest anchor, whose flag (`wrap`) the very first path set.
    /// In a covered gap a target is free; otherwise it costs the distance
    /// to the nearer gap end, a tie going to `src`, else to the
    /// lower-numbered end. Only the first path, from the lone anchor
    /// `src`, can be antipodal and needs `next_hop` to pick its side.
    fn multicast_cost_sorted(&self, src: NodeId, sorted: &[NodeId]) -> Option<u64> {
        let s = src.raw();
        let mut targets = sorted.iter().map(|t| t.raw()).filter(|&t| t != s);
        let Some(first) = targets.next() else {
            return Some(0);
        };
        let (fwd, bwd) = self.arcs(s, first);
        let up = self.next_hop(src, NodeId::new(first)) == Some(NodeId::new((s + 1) % self.n));
        let mut cost = u64::from(fwd.min(bwd));
        // the upward path from `src` covers the gap below `first`
        let (wrap, mut ahead) = (up, !up);
        let lowest = first.min(s);
        let mut pred = first;
        for t in targets {
            if pred < s && s < t {
                (pred, ahead) = (s, wrap);
            }
            let succ = if t < s { s } else { lowest };
            if !ahead {
                let (dp, dq) = (t - pred, self.arcs(t, succ).0);
                cost += u64::from(dp.min(dq));
                // attaching from above covers the gap the next target is in
                ahead = dq < dp || (dq == dp && (succ == s || (pred != s && succ < pred)));
            }
            pred = t;
        }
        Some(cost)
    }

    /// Ring paths average n/4 hops; at n = 1M the walk would pay ~260k
    /// `next_hop` steps per call even when the path meets no flagged
    /// node. The first hop (which carries the antipodal tie-break) fixes
    /// the direction and every later step continues the same way around,
    /// so the walked nodes are one index arc of length `distance` ending
    /// at `b`: scan the flags over that arc — the same first flagged
    /// node, found at memory-scan speed.
    fn hops_until_flagged(&self, a: NodeId, b: NodeId, flagged: &[bool]) -> (u32, bool) {
        let Some(first) = self.next_hop(a, b) else {
            return (0, false);
        };
        let (n, s) = (self.n as usize, a.index());
        let (fwd, bwd) = self.arcs(a.raw(), b.raw());
        let d = fwd.min(bwd) as usize;
        let start = (s + 1) % n;
        if first.index() == start {
            // ascending: (s+1)%n, (s+2)%n, ..., (s+d)%n
            let len1 = (n - start).min(d);
            if let Some(k) = flagged[start..start + len1].iter().position(|&c| c) {
                return (k as u32 + 1, true);
            }
            if let Some(k) = flagged[..d - len1].iter().position(|&c| c) {
                return ((len1 + k) as u32 + 1, true);
            }
        } else {
            // descending: s-1, s-2, ..., s-d (all mod n); scan each slice
            // segment from its high end to preserve walk order
            let len1 = s.min(d);
            if let Some(k) = flagged[s - len1..s].iter().rev().position(|&c| c) {
                return (k as u32 + 1, true);
            }
            if let Some(k) = flagged[n - (d - len1)..n].iter().rev().position(|&c| c) {
                return ((len1 + k) as u32 + 1, true);
            }
        }
        (d as u32, false)
    }
}

/// p×q mesh (`grid(pxq)`) or torus (`torus(pxq)`, `wrap = true`).
///
/// Node (r, c) is index `r·q + c`. Distance is per-axis: plain |Δ| on an
/// open axis, cyclic min(|Δ|, len−|Δ|) on a wrapped one. Wrap is
/// *suppressed per axis* for sides < 3, mirroring the generator (a length-2
/// cycle would duplicate the edge). Routing is one division-free step on
/// (row, col): the lowest-numbered neighbor that decreases the distance,
/// found per axis — the canonical rule by construction. Multicast
/// accounting takes each target's neighbors from its index and walks with
/// that step, so it never scans a neighborhood through `dyn` nor divides
/// per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridRouter {
    p: u32,
    q: u32,
    wrap: bool,
}

impl GridRouter {
    /// Router for `grid(pxq)` (`wrap = false`) or `torus(pxq)`.
    pub fn new(p: usize, q: usize, wrap: bool) -> Self {
        GridRouter {
            p: p as u32,
            q: q as u32,
            wrap,
        }
    }

    /// Whether the row and the column axis wrap (sides < 3 never do).
    fn wraps(&self) -> (bool, bool) {
        (self.wrap && self.p >= 3, self.wrap && self.q >= 3)
    }

    fn coords(&self, v: u32) -> (u32, u32) {
        (v / self.q, v % self.q)
    }

    fn axis_dist(x1: u32, x2: u32, len: u32, wrapped: bool) -> u32 {
        let d = x1.abs_diff(x2);
        if wrapped {
            d.min(len - d)
        } else {
            d
        }
    }

    fn dist_to(&self, (r, c): (u32, u32), (r2, c2): (u32, u32)) -> u32 {
        let (wp, wq) = self.wraps();
        Self::axis_dist(r, r2, self.p, wp) + Self::axis_dist(c, c2, self.q, wq)
    }

    /// The lower of the ≤ 2 coordinates one move from `x` that bring it
    /// closer to `to` along an axis of `len`, or `None` at `to`. Only an
    /// antipodal position on a wrapped axis has two.
    fn axis_step(x: u32, to: u32, len: u32, wrapped: bool) -> Option<u32> {
        if x == to {
            return None;
        }
        if !wrapped {
            return Some(if to < x { x - 1 } else { x + 1 });
        }
        let fwd = if to > x { to - x } else { to + len - x };
        let up = if x + 1 == len { 0 } else { x + 1 };
        let down = if x == 0 { len - 1 } else { x - 1 };
        Some(match fwd.cmp(&(len - fwd)) {
            std::cmp::Ordering::Less => up,
            std::cmp::Ordering::Greater => down,
            std::cmp::Ordering::Equal => up.min(down),
        })
    }

    /// The canonical next hop from (r, c) toward (r2, c2), without
    /// division: the lowest-numbered neighbor that lowers the distance, or
    /// `None` at (r2, c2). A neighbor in a lower row is numbered below every neighbor in
    /// row `r`, which are ordered by column, and a neighbor in a higher row
    /// above them all — so a row move wins only when it goes to a lower
    /// row, and otherwise loses to any column move.
    fn step(&self, (r, c): (u32, u32), (r2, c2): (u32, u32)) -> Option<(u32, u32)> {
        let (wp, wq) = self.wraps();
        let row = Self::axis_step(r, r2, self.p, wp);
        if let Some(nr) = row.filter(|&nr| nr < r) {
            return Some((nr, c));
        }
        match Self::axis_step(c, c2, self.q, wq) {
            Some(nc) => Some((r, nc)),
            None => row.map(|nr| (nr, c)),
        }
    }

    /// The left, right, up and down neighbors of `v` = (r, c), `u32::MAX`
    /// where the side has none.
    fn neighbor_ids(&self, v: u32, (r, c): (u32, u32)) -> [u32; 4] {
        let (p, q) = (self.p, self.q);
        let (wp, wq) = self.wraps();
        let left = if c > 0 {
            v - 1
        } else if wq {
            v + q - 1
        } else {
            u32::MAX
        };
        let right = if c + 1 < q {
            v + 1
        } else if wq {
            v + 1 - q
        } else {
            u32::MAX
        };
        let up = if r > 0 {
            v - q
        } else if wp {
            v + (p - 1) * q
        } else {
            u32::MAX
        };
        let down = if r + 1 < p {
            v + q
        } else if wp {
            c
        } else {
            u32::MAX
        };
        [left, right, up, down]
    }
}

impl Router for GridRouter {
    fn node_count(&self) -> usize {
        (self.p * self.q) as usize
    }

    fn distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        debug_assert!(a.raw() < self.p * self.q && b.raw() < self.p * self.q);
        Some(self.dist_to(self.coords(a.raw()), self.coords(b.raw())))
    }

    fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        debug_assert!(a.raw() < self.p * self.q && b.raw() < self.p * self.q);
        let (r, c) = self.step(self.coords(a.raw()), self.coords(b.raw()))?;
        Some(NodeId::new(r * self.q + c))
    }

    fn for_each_neighbor(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        let mut ids = self.neighbor_ids(v.raw(), self.coords(v.raw()));
        ids.sort_unstable();
        for id in ids {
            if id != u32::MAX {
                f(NodeId::new(id));
            }
        }
    }

    /// The greedy by index arithmetic: a checkerboard row or column sweep
    /// walks once, to its first target, and answers every later target in
    /// O(1); no walk divides per hop.
    ///
    /// The covered set is `src`, the earlier targets and the nodes walked
    /// so far. A target with an anchor (`src` or an earlier target) among
    /// its neighbors costs the one edge in unless a walk already covered
    /// it. Its neighbors come straight from its index, and an earlier
    /// target among them is nearly always the previous one (a row or
    /// column sweep), so the binary search runs only when that misses.
    /// Any other target pays the full anchor scan and walks from the
    /// nearest anchor with `step`. A walk passes over no anchor — one
    /// would be nearer — so only the walked nodes are checked on the way.
    /// They are kept sorted, and since targets ascend, a cursor into them
    /// answers an adjacent target without a search.
    fn multicast_cost_sorted(&self, src: NodeId, sorted: &[NodeId]) -> Option<u64> {
        let s = src.raw();
        let mut walked: Vec<u32> = Vec::new();
        // the first walked node not below the current target
        let mut cursor = 0;
        let mut cost = 0u64;
        for (i, &t) in sorted.iter().enumerate() {
            let t = t.raw();
            if t == s {
                continue;
            }
            let earlier = &sorted[..i];
            let to = self.coords(t);
            let prev = earlier.last().map_or(s, |u| u.raw());
            let near = self.neighbor_ids(t, to);
            // every earlier target is below `t`, so a higher neighbor can
            // only be the source
            let adjacent = near.iter().any(|&u| u == s || u == prev)
                || near
                    .iter()
                    .any(|&u| u < t && earlier.binary_search(&NodeId::new(u)).is_ok());
            if adjacent {
                while walked.get(cursor).is_some_and(|&w| w < t) {
                    cursor += 1;
                }
                cost += u64::from(walked.get(cursor) != Some(&t));
                continue;
            }
            // nearest anchor; on ties the earliest-connected anchor wins
            let mut at = self.coords(s);
            let mut best = self.dist_to(at, to);
            for a in earlier {
                let from = self.coords(a.raw());
                let d = self.dist_to(from, to);
                if d < best {
                    (best, at) = (d, from);
                }
            }
            let before = walked.len();
            while let Some(next) = self.step(at, to) {
                at = next;
                let hop = at.0 * self.q + at.1;
                if walked[..before].binary_search(&hop).is_err() {
                    cost += 1;
                    walked.push(hop);
                }
            }
            // the old nodes and the new path are a few sorted runs, which
            // the stable sort merges
            walked.sort();
            cursor = walked.partition_point(|&w| w < t);
        }
        Some(cost)
    }
}

/// d-cube (`hypercube(d)`): distance is Hamming. The canonical next hop
/// is *not* plain lowest-set-bit XOR: the lowest-numbered shortest-path
/// neighbor first clears the **highest** bit of `a & (a^b)` (clearing any
/// bit beats setting one, and clearing the highest clears the most), and
/// only once `a`'s surplus bits are gone sets the **lowest** bit of `a^b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HypercubeRouter {
    d: u32,
}

impl HypercubeRouter {
    /// Router for `hypercube(d)`, n = 2^d.
    ///
    /// # Panics
    ///
    /// Panics if `d > 30` (mirrors the generator's limit).
    pub fn new(d: u32) -> Self {
        assert!(d <= 30, "hypercube dimension too large: {d}");
        HypercubeRouter { d }
    }
}

impl Router for HypercubeRouter {
    fn node_count(&self) -> usize {
        1usize << self.d
    }

    fn distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        debug_assert!(a.index() < self.node_count() && b.index() < self.node_count());
        Some((a.raw() ^ b.raw()).count_ones())
    }

    fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        let diff = a.raw() ^ b.raw();
        if diff == 0 {
            return None;
        }
        let down = diff & a.raw();
        let bit = if down != 0 {
            31 - down.leading_zeros()
        } else {
            diff.trailing_zeros()
        };
        Some(NodeId::new(a.raw() ^ (1 << bit)))
    }

    fn for_each_neighbor(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        // ascending order: clearing bit i yields v − 2^i (descending i ⇒
        // ascending value, all below v), then setting yields v + 2^i.
        for i in (0..self.d).rev() {
            if v.raw() & (1 << i) != 0 {
                f(NodeId::new(v.raw() ^ (1 << i)));
            }
        }
        for i in 0..self.d {
            if v.raw() & (1 << i) == 0 {
                f(NodeId::new(v.raw() ^ (1 << i)));
            }
        }
    }

    /// The greedy with the adjacent-anchor shortcut (d neighbors a node).
    fn multicast_cost_sorted(&self, src: NodeId, sorted: &[NodeId]) -> Option<u64> {
        greedy_cost(self, src, sorted, true)
    }
}

/// A routing backend: one of the closed-form families, or the BFS table
/// oracle for arbitrary graphs. Enum (not `dyn`) so the sim hot path
/// dispatches with a branch instead of a vtable. Nothing shares a router
/// across threads today (the simulator is single-threaded and the live
/// host never routes), but every arm is plain data, so it is `Send +
/// Sync` should one need to.
#[derive(Debug, Clone)]
pub enum AnyRouter {
    /// `complete(n)` — everything one hop away.
    Complete(CompleteRouter),
    /// `ring(n)` — shorter arc, canonical antipodal tie-break.
    Ring(RingRouter),
    /// `grid(pxq)` / `torus(pxq)` — per-axis Manhattan / cyclic.
    Grid(GridRouter),
    /// `hypercube(d)` — Hamming distance, canonical bit order.
    Hypercube(HypercubeRouter),
    /// BFS all-pairs table: the O(n²) oracle of §3, for arbitrary graphs.
    Table(RoutingTable),
}

impl AnyRouter {
    /// Resolves an analytic router from a generator-convention graph name
    /// (`"complete(64)"`, `"ring(8)"`, `"grid(4x5)"`, `"torus(3x3)"`,
    /// `"hypercube(5)"`), validated against the node count `n`. Returns
    /// `None` for anything else — including a name whose advertised shape
    /// does not match `n`.
    pub fn analytic_for(name: &str, n: usize) -> Option<AnyRouter> {
        if n == 0 || n > u32::MAX as usize {
            return None;
        }
        if let Some(k) = parse_arg(name, "complete") {
            return (k == n as u64).then(|| AnyRouter::Complete(CompleteRouter::new(n)));
        }
        if let Some(k) = parse_arg(name, "ring") {
            return (k == n as u64).then(|| AnyRouter::Ring(RingRouter::new(n)));
        }
        if let Some(d) = parse_arg(name, "hypercube") {
            if d <= 30 && (1u64 << d) == n as u64 {
                return Some(AnyRouter::Hypercube(HypercubeRouter::new(d as u32)));
            }
            return None;
        }
        for (prefix, wrap) in [("grid", false), ("torus", true)] {
            if let Some((p, q)) = parse_dims(name, prefix) {
                return (p * q == n as u64)
                    .then(|| AnyRouter::Grid(GridRouter::new(p as usize, q as usize, wrap)));
            }
        }
        None
    }

    /// The routing backend for `g`: analytic when the graph name matches a
    /// structured family (edges are never consulted — shell graphs route
    /// fine), the BFS table oracle otherwise.
    pub fn for_graph(g: &Graph) -> AnyRouter {
        Self::analytic_for(g.name(), g.node_count())
            .unwrap_or_else(|| AnyRouter::Table(RoutingTable::new(g)))
    }

    /// The table oracle for `g`, regardless of name. O(n²) memory.
    pub fn table_for(g: &Graph) -> AnyRouter {
        AnyRouter::Table(RoutingTable::new(g))
    }

    /// `true` for the closed-form backends, `false` for the table oracle.
    pub fn is_analytic(&self) -> bool {
        !matches!(self, AnyRouter::Table(_))
    }
}

/// `"ring(8)"` with prefix `"ring"` → `Some(8)`.
fn parse_arg(name: &str, prefix: &str) -> Option<u64> {
    parse_paren(name, prefix)?.parse().ok()
}

/// `"grid(4x5)"` with prefix `"grid"` → `Some((4, 5))`.
fn parse_dims(name: &str, prefix: &str) -> Option<(u64, u64)> {
    let (p, q) = parse_paren(name, prefix)?.split_once('x')?;
    Some((p.parse().ok()?, q.parse().ok()?))
}

fn parse_paren<'a>(name: &'a str, prefix: &str) -> Option<&'a str> {
    name.strip_prefix(prefix)?
        .strip_prefix('(')?
        .strip_suffix(')')
}

impl Router for AnyRouter {
    fn node_count(&self) -> usize {
        match self {
            AnyRouter::Complete(r) => r.node_count(),
            AnyRouter::Ring(r) => r.node_count(),
            AnyRouter::Grid(r) => r.node_count(),
            AnyRouter::Hypercube(r) => r.node_count(),
            AnyRouter::Table(r) => Router::node_count(r),
        }
    }

    fn distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        match self {
            AnyRouter::Complete(r) => r.distance(a, b),
            AnyRouter::Ring(r) => r.distance(a, b),
            AnyRouter::Grid(r) => r.distance(a, b),
            AnyRouter::Hypercube(r) => r.distance(a, b),
            AnyRouter::Table(r) => Router::distance(r, a, b),
        }
    }

    fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        match self {
            AnyRouter::Complete(r) => r.next_hop(a, b),
            AnyRouter::Ring(r) => r.next_hop(a, b),
            AnyRouter::Grid(r) => r.next_hop(a, b),
            AnyRouter::Hypercube(r) => r.next_hop(a, b),
            AnyRouter::Table(r) => Router::next_hop(r, a, b),
        }
    }

    fn for_each_neighbor(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        match self {
            AnyRouter::Complete(r) => r.for_each_neighbor(v, f),
            AnyRouter::Ring(r) => r.for_each_neighbor(v, f),
            AnyRouter::Grid(r) => r.for_each_neighbor(v, f),
            AnyRouter::Hypercube(r) => r.for_each_neighbor(v, f),
            AnyRouter::Table(r) => Router::for_each_neighbor(r, v, f),
        }
    }

    fn multicast_cost_sorted(&self, src: NodeId, sorted: &[NodeId]) -> Option<u64> {
        match self {
            AnyRouter::Complete(r) => r.multicast_cost_sorted(src, sorted),
            AnyRouter::Ring(r) => r.multicast_cost_sorted(src, sorted),
            AnyRouter::Grid(r) => r.multicast_cost_sorted(src, sorted),
            AnyRouter::Hypercube(r) => r.multicast_cost_sorted(src, sorted),
            AnyRouter::Table(r) => r.multicast_cost_sorted(src, sorted),
        }
    }

    fn hops_until_flagged(&self, a: NodeId, b: NodeId, flagged: &[bool]) -> (u32, bool) {
        match self {
            AnyRouter::Complete(r) => r.hops_until_flagged(a, b, flagged),
            AnyRouter::Ring(r) => r.hops_until_flagged(a, b, flagged),
            AnyRouter::Grid(r) => r.hops_until_flagged(a, b, flagged),
            AnyRouter::Hypercube(r) => r.hops_until_flagged(a, b, flagged),
            AnyRouter::Table(r) => r.hops_until_flagged(a, b, flagged),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Every ordered pair: distance, next hop, neighborhood, and reverse
    /// next-hops must match the canonical table oracle exactly.
    fn assert_conformant(g: &Graph, r: &AnyRouter) {
        assert!(r.is_analytic(), "expected analytic router for {}", g.name());
        let oracle = RoutingTable::new(g);
        assert_eq!(r.node_count(), g.node_count());
        for a in g.nodes() {
            let mut mine = Vec::new();
            r.for_each_neighbor(a, &mut |u| mine.push(u));
            let real: Vec<NodeId> = g.neighbor_ids(a).collect();
            assert_eq!(mine, real, "{}: neighbors of {a:?}", g.name());
            for b in g.nodes() {
                assert_eq!(
                    r.distance(a, b),
                    RoutingTable::distance(&oracle, a, b),
                    "{}: distance {a:?}->{b:?}",
                    g.name()
                );
                assert_eq!(
                    r.next_hop(a, b),
                    RoutingTable::next_hop(&oracle, a, b),
                    "{}: next hop {a:?}->{b:?}",
                    g.name()
                );
                assert_eq!(
                    r.reverse_next_hops(a, b),
                    Router::reverse_next_hops(&oracle, a, b),
                    "{}: reverse hops origin {a:?} at {b:?}",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn ring_conforms_to_oracle() {
        for k in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 12, 31] {
            let g = gen::ring(k);
            assert_conformant(&g, &AnyRouter::for_graph(&g));
        }
    }

    #[test]
    fn grid_and_torus_conform_to_oracle() {
        for (p, q) in [
            (1, 1),
            (1, 5),
            (2, 2),
            (2, 6),
            (3, 3),
            (4, 5),
            (5, 4),
            (7, 3),
        ] {
            for wrap in [false, true] {
                let g = gen::grid(p, q, wrap);
                assert_conformant(&g, &AnyRouter::for_graph(&g));
            }
        }
    }

    #[test]
    fn hypercube_conforms_to_oracle() {
        for d in 0u32..=6 {
            let g = gen::hypercube(d);
            assert_conformant(&g, &AnyRouter::for_graph(&g));
        }
    }

    #[test]
    fn complete_conforms_to_oracle() {
        for k in [1usize, 2, 3, 9] {
            let g = gen::complete(k);
            assert_conformant(&g, &AnyRouter::for_graph(&g));
        }
    }

    #[test]
    fn shell_graph_routes_without_edges() {
        // the whole point: a named, edgeless shell routes identically to
        // the materialized graph.
        let real = gen::grid(4, 6, true);
        let shell = Graph::with_name(24, "torus(4x6)");
        let r = AnyRouter::for_graph(&shell);
        assert!(r.is_analytic());
        let oracle = RoutingTable::new(&real);
        for a in real.nodes() {
            for b in real.nodes() {
                assert_eq!(r.distance(a, b), RoutingTable::distance(&oracle, a, b));
                assert_eq!(r.next_hop(a, b), RoutingTable::next_hop(&oracle, a, b));
            }
        }
    }

    #[test]
    fn hops_walk_matches_table_walk() {
        let g = gen::ring(9);
        let r = AnyRouter::for_graph(&g);
        let rt = RoutingTable::new(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                let walked: Vec<NodeId> = r.hops(a, b).collect();
                let oracle: Vec<NodeId> = rt.hops(a, b).collect();
                assert_eq!(walked, oracle);
                assert_eq!(r.hops(a, b).size_hint().0, walked.len());
            }
        }
    }

    #[test]
    fn ring_arc_scan_matches_the_next_hop_walk() {
        // every (n, from, to) pair — odd and even rings, antipodal
        // tie-breaks, wraparound in both directions — under crash
        // patterns derived from a deterministic counter; the table router
        // has no override, so it is the provided walk
        for k in [2usize, 3, 5, 8, 9, 16] {
            let g = gen::ring(k);
            let ring = AnyRouter::for_graph(&g);
            assert!(matches!(ring, AnyRouter::Ring(_)));
            let walk = RoutingTable::new(&g);
            for pattern in 0u64..64 {
                let flagged: Vec<bool> = (0..k)
                    .map(|i| (pattern.wrapping_mul(0x9e37_79b9).rotate_left(i as u32)) & 1 == 1)
                    .collect();
                for a in g.nodes() {
                    for b in g.nodes() {
                        assert_eq!(
                            ring.hops_until_flagged(a, b, &flagged),
                            walk.hops_until_flagged(a, b, &flagged),
                            "n={k} pattern={pattern} {a:?}->{b:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn name_resolution_validates_shape() {
        // mismatched node counts must not resolve analytically.
        assert!(AnyRouter::analytic_for("ring(8)", 9).is_none());
        assert!(AnyRouter::analytic_for("grid(4x5)", 21).is_none());
        assert!(AnyRouter::analytic_for("hypercube(3)", 9).is_none());
        assert!(AnyRouter::analytic_for("complete(4)", 5).is_none());
        assert!(AnyRouter::analytic_for("", 5).is_none());
        assert!(AnyRouter::analytic_for("path(5)", 5).is_none());
        assert!(AnyRouter::analytic_for("ring(8", 8).is_none());
        // matched ones do.
        assert!(AnyRouter::analytic_for("ring(8)", 8).is_some());
        assert!(AnyRouter::analytic_for("torus(3x4)", 12).is_some());
        assert!(AnyRouter::analytic_for("hypercube(4)", 16).is_some());
    }

    #[test]
    fn unnamed_graph_falls_back_to_table() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let r = AnyRouter::for_graph(&g);
        assert!(!r.is_analytic());
        assert_eq!(r.next_hop(n(0), n(3)), Some(n(1)));
    }

    #[test]
    fn million_node_routers_are_cheap() {
        // 1M-node fabrics: distance and next hop in O(1), no allocation.
        let ring = RingRouter::new(1 << 20);
        assert_eq!(ring.distance(n(0), n(1 << 19)), Some(1 << 19));
        let grid = GridRouter::new(1024, 1024, false);
        assert_eq!(grid.distance(n(0), n((1 << 20) - 1)), Some(2046));
        let torus = GridRouter::new(1024, 1024, true);
        assert_eq!(torus.distance(n(0), n((1 << 20) - 1)), Some(2));
        let cube = HypercubeRouter::new(20);
        assert_eq!(cube.distance(n(0), n((1 << 20) - 1)), Some(20));
        // a canonical walk across the cube terminates in d hops.
        assert_eq!(cube.hops(n(0), n((1 << 20) - 1)).count(), 20);
    }
}
