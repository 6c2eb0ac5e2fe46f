//! The truly distributed checkerboard arrangement (Example 4 and
//! Proposition 3) and its rectangular generalization.
//!
//! Proposition 3: *"Arrange the rendez-vous matrix `R` as a checker board
//! consisting of (as near as possible) `√n × √n` squares … each square is
//! filled with about `n` copies of one unique node."* This yields
//! `#P(i)·#Q(j) ≈ n`, `#P(i) + #Q(j) ≈ 2√n` and `k_i ≈ n` — matching the
//! truly-distributed lower bound `m(n) ≥ 2√n` up to rounding.

use crate::strategy::{normalize_set, Strategy};
use mm_topo::NodeId;

/// Rectangular block arrangement: the matrix is tiled into `x` row-bands
/// by `y` column-bands; the block at band `(r, c)` uses rendezvous node
/// `(r·y + c) mod n`.
///
/// `P(i)` is the `y` nodes of `i`'s row-band, `Q(j)` the `x` nodes of
/// `j`'s column-band: `#P·#Q = x·y ≥ n` realizes any point on the
/// trade-off curve of §2.3.2 — including the weighted (M3′) optima
/// `p = √(αn)`, `q = √(n/α)` (see [`Blocks::for_alpha`]).
///
/// Either set is one arithmetic band before the reduction mod `n`: row
/// `r` is `r·y, r·y + 1, …` (`y` members, step 1), column `c` is
/// `c, c + y, c + 2y, …` (`x` members, step `y`). The members below `n`
/// ascend as they are made, so a band that stays below `n` — every band
/// when `x·y = n`, as on a square `n` — is canonical without a division
/// or a sort; only a band that wraps reduces its tail and is sorted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocks {
    n: usize,
    /// number of row bands (= `#Q`)
    x: usize,
    /// number of column bands (= `#P`)
    y: usize,
}

impl Blocks {
    /// Creates a block strategy with `x` row-bands and `y` column-bands.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ x,y ≤ n` and `x·y ≥ n` (the rendezvous
    /// constraint `p·q ≥ n`), or if node `n - 1` has no 32-bit id.
    pub fn new(n: usize, x: usize, y: usize) -> Self {
        assert!(n > 0, "universe must be non-empty");
        assert!(n - 1 <= u32::MAX as usize, "node index exceeds u32::MAX");
        assert!(
            (1..=n).contains(&x) && (1..=n).contains(&y),
            "band counts must be in 1..=n"
        );
        assert!(x * y >= n, "need x*y >= n for distinct block nodes");
        Blocks { n, x, y }
    }

    /// The block strategy minimizing the weighted cost `#P + α·#Q`:
    /// `#P = ⌈√(αn)⌉`, `#Q = ⌈n / #P⌉` (rounded feasibly).
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 0` or `n == 0`.
    pub fn for_alpha(n: usize, alpha: f64) -> Self {
        let (p, _q) = crate::bounds::weighted_optimal_split(n, alpha);
        let y = (p.ceil() as usize).clamp(1, n);
        let x = n.div_ceil(y).clamp(1, n);
        Blocks::new(n, x, y)
    }

    /// Row-band of node `i` (bands as equal as possible).
    fn row_band(&self, i: NodeId) -> usize {
        i.index() * self.x / self.n
    }

    /// Column-band of node `j`.
    fn col_band(&self, j: NodeId) -> usize {
        j.index() * self.y / self.n
    }

    /// The nodes `(first + k·step) mod n` for `k < count`, ascending and
    /// duplicate-free: the rendezvous nodes of one row or column band.
    ///
    /// The members below `n` are a plain progression, written as they
    /// come; only a band that runs past `n` reduces its tail and sorts.
    /// Every member is below `n`, so it fits a `NodeId` ([`Blocks::new`]
    /// checks that once).
    fn band(&self, first: usize, step: usize, count: usize) -> Vec<NodeId> {
        let plain = count.min(self.n.saturating_sub(first).div_ceil(step));
        let mut out = Vec::with_capacity(count);
        out.extend((0..plain).map(|k| NodeId::new((first + k * step) as u32)));
        if plain < count {
            let wrapped = (plain..count).map(|k| (first + k * step) % self.n);
            out.extend(wrapped.map(|v| NodeId::new(v as u32)));
            normalize_set(&mut out);
        }
        out
    }

    /// `(x, y)` band counts.
    pub fn shape(&self) -> (usize, usize) {
        (self.x, self.y)
    }
}

impl Strategy for Blocks {
    fn node_count(&self) -> usize {
        self.n
    }

    fn post_set(&self, i: NodeId) -> Vec<NodeId> {
        self.band(self.row_band(i) * self.y, 1, self.y)
    }

    fn query_set(&self, j: NodeId) -> Vec<NodeId> {
        self.band(self.col_band(j), self.y, self.x)
    }

    fn name(&self) -> String {
        format!("blocks({}x{})", self.x, self.y)
    }
}

/// The square checkerboard (Example 4 / Proposition 3): `Blocks` with
/// `x = y = ⌈√n⌉` — the canonical *truly distributed* name server where
/// every node carries (about) the same rendezvous load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkerboard {
    inner: Blocks,
}

impl Checkerboard {
    /// Truly distributed arrangement over `n ≥ 1` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        let b = (n as f64).sqrt().ceil() as usize;
        Checkerboard {
            inner: Blocks::new(n, b.max(1), b.max(1)),
        }
    }
}

impl Strategy for Checkerboard {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn post_set(&self, i: NodeId) -> Vec<NodeId> {
        self.inner.post_set(i)
    }
    fn query_set(&self, j: NodeId) -> Vec<NodeId> {
        self.inner.query_set(j)
    }
    fn name(&self) -> String {
        format!("checkerboard({})", self.node_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use proptest::prelude::{any, proptest, ProptestConfig};

    /// The construction the band builder replaced, kept as its oracle:
    /// block `(r, c)` is node `(r·y + c) mod n`, and a set is its band's
    /// blocks sorted and deduped.
    fn oracle(b: &Blocks, blocks: impl Iterator<Item = (usize, usize)>) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = blocks
            .map(|(r, c)| NodeId::from((r * b.y + c) % b.n))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Checks `P(i)` and `Q(i)` against the oracle at every node `i` that
    /// `nodes` yields (the oracle's sets are made once per band).
    fn assert_bands_match(b: &Blocks, nodes: impl Iterator<Item = usize>) {
        let mut posts = vec![None; b.x];
        let mut queries = vec![None; b.y];
        for i in nodes.map(NodeId::from) {
            let (r, c) = (b.row_band(i), b.col_band(i));
            let post = posts[r].get_or_insert_with(|| oracle(b, (0..b.y).map(|c| (r, c))));
            assert_eq!(&b.post_set(i), post, "{b:?}: P({i})");
            let query = queries[c].get_or_insert_with(|| oracle(b, (0..b.x).map(|r| (r, c))));
            assert_eq!(&b.query_set(i), query, "{b:?}: Q({i})");
        }
    }

    /// The first node of every row band and of every column band: a set
    /// depends on its node's band only.
    fn band_starts(b: &Blocks) -> impl Iterator<Item = usize> + '_ {
        let bands = |i: usize| (b.row_band(NodeId::from(i)), b.col_band(NodeId::from(i)));
        (0..b.n).filter(move |&i| i == 0 || bands(i) != bands(i - 1))
    }

    /// Checks every node of a `Blocks` over `n` nodes whose shape the two
    /// picks choose among all valid ones: `x·y` from just over `n` (a
    /// short wrapped tail) to `n²` (every band wraps many times over and
    /// folds onto duplicates).
    fn assert_any_shape_matches(n: usize, x_pick: usize, y_pick: usize) {
        let x = 1 + x_pick % n;
        let y_min = n.div_ceil(x);
        let y = y_min + y_pick % (n - y_min + 1);
        let b = Blocks::new(n, x, y);
        assert_bands_match(&b, 0..n);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bands_equal_the_block_formula(
            n in 1usize..=300,
            x_pick in any::<usize>(),
            y_pick in any::<usize>(),
        ) {
            assert_any_shape_matches(n, x_pick, y_pick);
        }

        /// The weighted optima's shapes, `α` from 1/16 to 16.
        #[test]
        fn for_alpha_bands_equal_the_block_formula(
            n in 1usize..=2000,
            quarter_octaves in 0u32..=32,
        ) {
            let alpha = 2f64.powf(quarter_octaves as f64 / 4.0 - 4.0);
            let b = Blocks::for_alpha(n, alpha);
            assert_bands_match(&b, 0..n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        #[ignore = "release tier: n up to 2,000, every node"]
        fn bands_equal_the_block_formula_at_scale(
            n in 1usize..=2000,
            x_pick in any::<usize>(),
            y_pick in any::<usize>(),
        ) {
            assert_any_shape_matches(n, x_pick, y_pick);
        }
    }

    #[test]
    fn checkerboard_bands_equal_the_block_formula() {
        // non-square n: x·y > n, so the last bands run past n and wrap
        for n in [40usize, 257, 2047, 4030] {
            let b = Checkerboard::new(n).inner;
            assert!(b.x * b.y > n, "n={n} should wrap");
            assert_bands_match(&b, band_starts(&b));
        }
        // square n: x·y = n, every band is a plain progression
        for n in [65_536usize, 262_144] {
            let b = Checkerboard::new(n).inner;
            assert_eq!(b.x * b.y, n);
            assert_bands_match(&b, band_starts(&b));
        }
    }

    #[test]
    fn perfect_square_matches_example_4() {
        // paper example 4: n = 9, bands of 3
        let s = Checkerboard::new(9);
        s.validate().unwrap();
        let m = s.to_matrix();
        assert!(m.is_optimal());
        // r_ij = band(i)*3 + band(j)
        for i in 0..9u32 {
            for j in 0..9u32 {
                let want = NodeId::new((i / 3) * 3 + j / 3);
                assert_eq!(m.entry(NodeId::new(i), NodeId::new(j)), &[want]);
            }
        }
        // every node equally loaded: k_i = 9
        assert_eq!(m.multiplicities(), vec![9u64; 9]);
        assert!((s.average_cost() - 6.0).abs() < 1e-12); // 2 sqrt 9
    }

    #[test]
    fn non_square_sizes_work() {
        for n in [2usize, 3, 5, 7, 10, 12, 17, 40, 100, 101] {
            let s = Checkerboard::new(n);
            s.validate().unwrap();
            let bound = bounds::truly_distributed_bound(n);
            let m = s.average_cost();
            assert!(
                m <= bound + 2.5,
                "n={n}: m = {m} should be within rounding of {bound}"
            );
        }
    }

    #[test]
    fn near_uniform_load() {
        let s = Checkerboard::new(64);
        let k = s.to_matrix().multiplicities();
        let max = *k.iter().max().unwrap() as f64;
        let min = *k.iter().min().unwrap() as f64;
        // perfect square: exactly uniform
        assert_eq!(max, min);
        assert_eq!(max, 64.0);
    }

    #[test]
    fn blocks_tradeoff_shapes() {
        let n = 100usize;
        for (x, y) in [(10usize, 10usize), (4, 25), (25, 4), (2, 50), (100, 1)] {
            let s = Blocks::new(n, x, y);
            s.validate().unwrap();
            let i = NodeId::new(0);
            assert!(s.post_count(i) <= y);
            assert!(s.query_count(i) <= x);
        }
    }

    #[test]
    fn blocks_for_alpha_tracks_optimum() {
        let n = 400usize;
        for alpha in [0.25f64, 1.0, 4.0, 25.0] {
            let s = Blocks::for_alpha(n, alpha);
            s.validate().unwrap();
            let (x, y) = s.shape();
            let (p_opt, q_opt) = bounds::weighted_optimal_split(n, alpha);
            assert!(
                (y as f64 - p_opt).abs() <= 2.0,
                "alpha={alpha}: post size {y} vs optimum {p_opt}"
            );
            assert!(
                (x as f64 - q_opt).abs() <= 2.0 + q_opt * 0.2,
                "alpha={alpha}: query size {x} vs optimum {q_opt}"
            );
        }
    }

    #[test]
    fn blocks_invalid_params_panic() {
        assert!(std::panic::catch_unwind(|| Blocks::new(10, 2, 2)).is_err()); // 4 < 10
        assert!(std::panic::catch_unwind(|| Blocks::new(10, 0, 10)).is_err());
        assert!(std::panic::catch_unwind(|| Blocks::new(0, 1, 1)).is_err());
    }

    #[test]
    fn singleton_universe() {
        let s = Checkerboard::new(1);
        s.validate().unwrap();
        assert_eq!(s.post_set(NodeId::new(0)), vec![NodeId::new(0)]);
        assert!((s.average_cost() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn prop3_product_stays_near_n() {
        for n in [16usize, 36, 81, 144] {
            let s = Checkerboard::new(n);
            let i = NodeId::new(0);
            let prod = s.post_count(i) * s.query_count(i);
            assert!(
                prod >= n && prod <= n + 3 * (n as f64).sqrt() as usize + 3,
                "n={n}: #P*#Q = {prod}"
            );
        }
    }
}
