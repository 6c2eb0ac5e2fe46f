//! Summary statistics over experiment samples.
//!
//! This module is the **single** percentile implementation in the
//! workspace: `mm-workload`'s per-phase reports and the campaign
//! aggregation pipeline both interpolate through [`percentile_sorted`] /
//! [`percentile_or_zero`], so a campaign table can never disagree with
//! the per-run report it was joined from (the two used to carry
//! independently written interpolations — see `tests/stats_consistency.rs`
//! for the cross-crate pin).

/// Mean / variance / percentiles of a sample set.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Summary {
    /// Number of samples that entered the statistics (NaNs excluded).
    pub count: usize,
    /// Samples dropped because they were NaN. A single bad run must not
    /// kill a whole aggregation, but it must not vanish silently either.
    pub dropped_nan: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected; 0 for < 2 samples).
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarizes `samples`, ignoring (but counting) NaN values.
    ///
    /// Returns `None` when no non-NaN sample remains — an empty slice or
    /// an all-NaN one. Infinities are legal samples (they sort to the
    /// extremes); only NaN, which has no order, is dropped.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        let dropped_nan = samples.len() - sorted.len();
        if sorted.is_empty() {
            return None;
        }
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs were filtered"));
        Some(Summary {
            count,
            dropped_nan,
            mean,
            stddev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile_sorted(&sorted, 0.5),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
        })
    }

    /// Half-width of the 95% normal-approximation confidence interval of
    /// the mean.
    pub fn ci95(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        1.96 * self.stddev / (self.count as f64).sqrt()
    }

    /// Summarizes integer samples.
    pub fn of_ints<I: IntoIterator<Item = u64>>(samples: I) -> Option<Summary> {
        let v: Vec<f64> = samples.into_iter().map(|x| x as f64).collect();
        Summary::of(&v)
    }
}

/// Linear-interpolated percentile of a pre-sorted slice (`q` in `[0,1]`).
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0,1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    interpolate(sorted.len(), q, |i| sorted[i])
}

/// The one interpolation: the `q`-quantile of `len` ascending samples,
/// the `i`-th read through `at`.
fn interpolate(len: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    assert!(len > 0, "empty sample set");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if len == 1 {
        return at(0);
    }
    let pos = q * (len - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    at(lo) * (1.0 - frac) + at(hi) * frac
}

/// [`percentile_sorted`] with the empty case mapped to `0.0` instead of a
/// panic — a zero-node metrics snapshot or a phase with no closed-loop
/// operations must yield zeroed stats. This is the variant the workload
/// reports use; keeping it here next to the interpolation it wraps is
/// what stops a second, drifting implementation from growing elsewhere.
pub fn percentile_or_zero(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile_sorted(sorted, q)
    }
}

/// [`percentile_or_zero`] over ascending integer samples, converting
/// only the two it reads: a per-node load vector is sorted as `u64` in
/// place instead of being copied into a `Vec<f64>` first. The conversion
/// is monotone, so the result is bit-identical to converting the whole
/// slice and calling [`percentile_or_zero`].
pub fn percentile_or_zero_u64(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        interpolate(sorted.len(), q, |i| sorted[i] as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_summary() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.dropped_nan, 0);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.stddev - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95(), 0.0);
        assert_eq!(s.p95, 7.0);
        assert_eq!(s.p99, 7.0);
    }

    /// Satellite regression: one NaN sample used to panic the whole
    /// summary through the sort comparator. Now it is filtered and
    /// counted, and the remaining statistics are exactly the NaN-free
    /// ones.
    #[test]
    fn nan_samples_are_dropped_and_counted() {
        let s = Summary::of(&[2.0, f64::NAN, 4.0, 6.0, f64::NAN]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.dropped_nan, 2);
        assert_eq!(s, {
            let mut clean = Summary::of(&[2.0, 4.0, 6.0]).unwrap();
            clean.dropped_nan = 2;
            clean
        });
        // all-NaN collapses to None, same as empty — not a zeroed ghost
        assert_eq!(Summary::of(&[f64::NAN, f64::NAN]), None);
        // infinities are ordered values, not NaNs: they stay
        let inf = Summary::of(&[1.0, f64::INFINITY]).unwrap();
        assert_eq!(inf.dropped_nan, 0);
        assert_eq!(inf.max, f64::INFINITY);
    }

    #[test]
    fn percentiles_interpolate() {
        let sorted = [0.0, 10.0];
        assert!((percentile_sorted(&sorted, 0.25) - 2.5).abs() < 1e-12);
        assert_eq!(percentile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 10.0);
    }

    #[test]
    fn percentile_or_zero_matches_sorted_when_nonempty() {
        assert_eq!(percentile_or_zero(&[], 0.5), 0.0);
        let sorted = [1.0, 3.0, 5.0, 9.0];
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(
                percentile_or_zero(&sorted, q),
                percentile_sorted(&sorted, q)
            );
        }
    }

    #[test]
    fn percentile_or_zero_u64_matches_the_f64_path() {
        assert_eq!(percentile_or_zero_u64(&[], 0.99), 0.0);
        let ints = [0u64, 0, 3, 7, 7, u64::from(u32::MAX)];
        let floats: Vec<f64> = ints.iter().map(|&x| x as f64).collect();
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(
                percentile_or_zero_u64(&ints, q).to_bits(),
                percentile_or_zero(&floats, q).to_bits()
            );
        }
        assert_eq!(percentile_or_zero_u64(&[9], 0.5), 9.0);
    }

    #[test]
    fn of_ints_converts() {
        let s = Summary::of_ints([2u64, 4, 6]).unwrap();
        assert!((s.mean - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let few = Summary::of(&[1.0, 2.0, 3.0]).unwrap().ci95();
        let many: Vec<f64> = (0..300).map(|i| 1.0 + (i % 3) as f64).collect();
        let tight = Summary::of(&many).unwrap().ci95();
        assert!(tight < few);
    }
}
