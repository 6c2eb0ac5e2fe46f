//! Projective planes `PG(2,k)` over prime fields.
//!
//! Paper §3.4: *"The projective plane `PG(2,k)` has `n = k² + k + 1` points
//! and equally many lines. Each line consists of `k+1` points and `k+1`
//! lines pass through each point. Each pair of lines has exactly one point
//! in common. A server posts its (port, address) to all nodes on an
//! arbitrary line incident on its host node. A client queries all nodes on
//! an arbitrary line incident on its own host node. The common node of the
//! two lines is the rendez-vous node."* — `m(n) = 2(k+1) ≈ 2√n`.
//!
//! Construction: points and lines are the 1- and 2-dimensional subspaces of
//! `GF(k)³`, represented by normalized homogeneous coordinates; point `p`
//! lies on line `l` iff `p · l = 0 (mod k)`. Prime `k` only ([`Gf`] is a
//! prime field; prime orders suffice for the paper's sweeps).

use crate::gf::Gf;
use crate::graph::{Graph, NodeId, TopoError};

/// A projective plane of prime order `k`, with incidence both ways.
///
/// Points and lines are indexed `0..n` where `n = k² + k + 1`.
///
/// # Example
///
/// ```
/// use mm_topo::ProjectivePlane;
/// let pg = ProjectivePlane::new(3).unwrap();
/// assert_eq!(pg.point_count(), 13);
/// assert_eq!(pg.line(0).len(), 4); // k + 1 points per line
/// // any two distinct lines meet in exactly one point
/// let common = pg.line_intersection(0, 5);
/// assert_eq!(common.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ProjectivePlane {
    k: u64,
    n: usize,
    /// Normalized homogeneous coordinates of each point.
    points: Vec<[u64; 3]>,
    /// `lines[l]` = sorted point ids on line `l`.
    lines: Vec<Vec<u32>>,
    /// `through[p]` = sorted line ids through point `p`.
    through: Vec<Vec<u32>>,
}

impl ProjectivePlane {
    /// Constructs `PG(2,k)` for prime `k`.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::InvalidParameter`] if `k` is not prime.
    pub fn new(k: u64) -> Result<Self, TopoError> {
        let f = Gf::new(k)?;
        let coords = Self::homogeneous_reps(k);
        let n = coords.len();
        debug_assert_eq!(n as u64, k * k + k + 1);

        // Incidence: point p on line l iff dot(p, l) == 0 (mod k). Lines use
        // the same normalized representatives (self-duality of PG(2,k)).
        let mut lines = vec![Vec::new(); n];
        let mut through = vec![Vec::new(); n];
        for (li, l) in coords.iter().enumerate() {
            for (pi, p) in coords.iter().enumerate() {
                let dot = f.add(
                    f.add(f.mul(p[0], l[0]), f.mul(p[1], l[1])),
                    f.mul(p[2], l[2]),
                );
                if dot == 0 {
                    lines[li].push(pi as u32);
                    through[pi].push(li as u32);
                }
            }
        }
        Ok(ProjectivePlane {
            k,
            n,
            points: coords,
            lines,
            through,
        })
    }

    /// Canonical representatives of the projective points: first nonzero
    /// coordinate equals 1 — `(1,a,b)`, `(0,1,c)`, `(0,0,1)`.
    fn homogeneous_reps(k: u64) -> Vec<[u64; 3]> {
        let mut v = Vec::with_capacity((k * k + k + 1) as usize);
        for a in 0..k {
            for b in 0..k {
                v.push([1, a, b]);
            }
        }
        for c in 0..k {
            v.push([0, 1, c]);
        }
        v.push([0, 0, 1]);
        v
    }

    /// The plane order `k`.
    pub fn order(&self) -> u64 {
        self.k
    }

    /// Number of points (= number of lines) `n = k² + k + 1`.
    pub fn point_count(&self) -> usize {
        self.n
    }

    /// Homogeneous coordinates of point `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= point_count()`.
    pub fn point_coords(&self, p: usize) -> [u64; 3] {
        self.points[p]
    }

    /// The sorted points on line `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= point_count()`.
    pub fn line(&self, l: usize) -> &[u32] {
        &self.lines[l]
    }

    /// The sorted lines through point `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= point_count()`.
    pub fn lines_through(&self, p: usize) -> &[u32] {
        &self.through[p]
    }

    /// Points common to lines `a` and `b` (exactly one for `a != b`).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn line_intersection(&self, a: usize, b: usize) -> Vec<u32> {
        let (la, lb) = (&self.lines[a], &self.lines[b]);
        la.iter()
            .copied()
            .filter(|p| lb.binary_search(p).is_ok())
            .collect()
    }

    /// A deterministic "home line" for a node hosting a server or client:
    /// the first line through the point. The paper allows *any* incident
    /// line; a deterministic pick keeps simulations reproducible, and
    /// [`ProjectivePlane::lines_through`] exposes the alternatives for the
    /// fault-tolerance experiments.
    ///
    /// # Panics
    ///
    /// Panics if `p >= point_count()`.
    pub fn home_line(&self, p: usize) -> usize {
        self.through[p][0] as usize
    }

    /// Builds a communications graph on the points: consecutive points of
    /// every line are joined, so posting along a line is a connected sweep
    /// of `k` message passes.
    pub fn incidence_graph(&self) -> Graph {
        let mut g = Graph::with_name(self.n, format!("pg(2,{})", self.k));
        for line in &self.lines {
            for w in line.windows(2) {
                let _ = g.add_edge(NodeId::new(w[0]), NodeId::new(w[1]));
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::is_connected;

    #[test]
    fn axioms_for_small_orders() {
        for k in [2u64, 3, 5, 7] {
            let pg = ProjectivePlane::new(k).unwrap();
            let n = (k * k + k + 1) as usize;
            assert_eq!(pg.point_count(), n);
            // each line has k+1 points; k+1 lines through each point
            for l in 0..n {
                assert_eq!(pg.line(l).len() as u64, k + 1, "k={k} line {l}");
            }
            for p in 0..n {
                assert_eq!(pg.lines_through(p).len() as u64, k + 1, "k={k} point {p}");
            }
            // every pair of lines meets in exactly one point
            for a in 0..n {
                for b in (a + 1)..n {
                    assert_eq!(pg.line_intersection(a, b).len(), 1, "k={k} lines {a},{b}");
                }
            }
        }
    }

    #[test]
    fn fano_plane() {
        let pg = ProjectivePlane::new(2).unwrap();
        assert_eq!(pg.point_count(), 7);
        assert_eq!(pg.order(), 2);
        // 7 lines of 3 points each: 21 incidences
        let total: usize = (0..7).map(|l| pg.line(l).len()).sum();
        assert_eq!(total, 21);
    }

    #[test]
    fn non_prime_rejected() {
        assert!(ProjectivePlane::new(4).is_err(), "GF(4) not supported");
        assert!(ProjectivePlane::new(6).is_err());
        assert!(ProjectivePlane::new(1).is_err());
    }

    #[test]
    fn home_line_is_incident() {
        let pg = ProjectivePlane::new(5).unwrap();
        for p in 0..pg.point_count() {
            let l = pg.home_line(p);
            assert!(pg.line(l).binary_search(&(p as u32)).is_ok());
        }
    }

    #[test]
    fn incidence_graph_connected() {
        for k in [2u64, 3, 5] {
            let pg = ProjectivePlane::new(k).unwrap();
            let g = pg.incidence_graph();
            assert_eq!(g.node_count(), pg.point_count());
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn duality_point_line_counts_match() {
        let pg = ProjectivePlane::new(11).unwrap();
        let incidences_by_lines: usize = (0..pg.point_count()).map(|l| pg.line(l).len()).sum();
        let incidences_by_points: usize = (0..pg.point_count())
            .map(|p| pg.lines_through(p).len())
            .sum();
        assert_eq!(incidences_by_lines, incidences_by_points);
    }
}
