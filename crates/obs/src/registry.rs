//! Named counters, gauges and log₂-bucketed histograms.
//!
//! The registry unifies the runners' ad-hoc accounting into one
//! snapshot-able structure. Snapshots serialize as sorted name/value
//! lists (not maps) so they round-trip through the vendored serde shim
//! and render deterministically.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Number of log₂ histogram buckets: bucket 0 holds value 0, bucket
/// `k > 0` holds values in `[2^(k-1), 2^k)`, up to the full u64 range.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index for a value: `0` for 0, else `64 - leading_zeros`.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive lower bound of a bucket (for display).
fn bucket_lo(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else {
        1u64 << (idx - 1)
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HIST_BUCKETS],
}

// arrays longer than 32 don't get a derived Default
impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    fn observe(&mut self, v: u64) {
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count += 1;
        // the sum saturates rather than wrapping: two observations of
        // u64::MAX are already past the representable range, and a pinned
        // ceiling is a legible answer where a wrapped sum is silent
        // nonsense (campaign tables read these histograms)
        self.sum = self.sum.saturating_add(v);
        self.buckets[bucket_of(v)] += 1;
    }
}

/// A named scalar in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedValue {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: i64,
}

/// A nonzero histogram bucket in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketSnap {
    /// Inclusive lower bound of the bucket's value range.
    pub lo: u64,
    /// Observations that fell in the bucket.
    pub count: u64,
}

/// A named histogram in a snapshot (sparse: only nonzero buckets).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnap {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Nonzero buckets in ascending `lo` order.
    pub buckets: Vec<BucketSnap>,
}

/// A point-in-time view of a [`Registry`], ordered by metric name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Monotonic counters.
    pub counters: Vec<NamedValue>,
    /// Last-write-wins gauges.
    pub gauges: Vec<NamedValue>,
    /// Histograms.
    pub histograms: Vec<HistogramSnap>,
}

impl RegistrySnapshot {
    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<i64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnap> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// The mutable registry the runners feed during a phase.
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the named counter (created at 0).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &str, v: i64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// Merges a raw bucket-count array (e.g. the simulator's queue-depth
    /// buckets) into the named histogram. `counts[i]` observations are
    /// credited to bucket `i` with representative value `bucket_lo(i)`.
    pub fn observe_buckets(&mut self, name: &str, counts: &[u64; HIST_BUCKETS]) {
        let h = self.histograms.entry(name.to_string()).or_default();
        for (idx, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let rep = bucket_lo(idx);
            if h.count == 0 || rep < h.min {
                h.min = rep;
            }
            if rep > h.max {
                h.max = rep;
            }
            h.count += c;
            // same saturation rule as `observe`: the top bucket's
            // representative is 2^63, so even c = 2 would wrap a plain add
            h.sum = h.sum.saturating_add(rep.saturating_mul(c));
            h.buckets[idx] += c;
        }
    }

    /// Snapshots every metric (sorted by name) and clears the registry
    /// for the next phase.
    pub fn snapshot_and_reset(&mut self) -> RegistrySnapshot {
        let snap = RegistrySnapshot {
            counters: self
                .counters
                .iter()
                .map(|(name, &value)| NamedValue {
                    name: name.clone(),
                    value: value as i64,
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(name, &value)| NamedValue {
                    name: name.clone(),
                    value,
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, h)| HistogramSnap {
                    name: name.clone(),
                    count: h.count,
                    sum: h.sum,
                    min: h.min,
                    max: h.max,
                    buckets: h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(idx, &c)| BucketSnap {
                            lo: bucket_lo(idx),
                            count: c,
                        })
                        .collect(),
                })
                .collect(),
        };
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(1), 1);
        assert_eq!(bucket_lo(2), 2);
        assert_eq!(bucket_lo(3), 4);
    }

    /// Satellite pin (PR 8): the documented bucketing contract is
    /// `bucket 0 = {0}`, `bucket k = [2^(k-1), 2^k)` — so every exact
    /// power of two `2^j` opens bucket `j + 1`, it never lands in the
    /// bucket that *ends* at it. Campaign tables read these histograms;
    /// an off-by-one here would silently halve or double every boundary
    /// sample's reported magnitude.
    #[test]
    fn every_power_of_two_opens_its_bucket() {
        for j in 0..64u32 {
            let v = 1u64 << j;
            let idx = bucket_of(v);
            assert_eq!(idx, j as usize + 1, "2^{j} must open bucket {}", j + 1);
            assert_eq!(bucket_lo(idx), v, "2^{j} is its bucket's lower bound");
            // one below the power belongs to the previous bucket
            // (except v = 1, where v - 1 = 0 is the dedicated zero bucket)
            assert_eq!(bucket_of(v - 1), if v == 1 { 0 } else { j as usize });
        }
        // the top bucket [2^63, 2^64) is last and holds u64::MAX
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_lo(HIST_BUCKETS - 1), 1u64 << 63);
    }

    /// Observations at the extremes of the domain: v = 0 stays out of the
    /// power buckets, v = u64::MAX lands in the top bucket, and repeated
    /// maximal observations saturate the sum instead of wrapping it to a
    /// small, plausible-looking lie.
    #[test]
    fn extreme_observations_bucket_and_saturate() {
        let mut r = Registry::new();
        r.observe("edge", 0);
        r.observe("edge", 1);
        r.observe("edge", u64::MAX);
        r.observe("edge", u64::MAX); // would wrap a plain `sum += v`
        let s = r.snapshot_and_reset();
        let h = s.histogram("edge").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!((h.min, h.max), (0, u64::MAX));
        assert_eq!(h.sum, u64::MAX, "sum pins at the ceiling, no wrap");
        assert_eq!(h.buckets.len(), 3);
        assert_eq!((h.buckets[0].lo, h.buckets[0].count), (0, 1));
        assert_eq!((h.buckets[1].lo, h.buckets[1].count), (1, 1));
        assert_eq!((h.buckets[2].lo, h.buckets[2].count), (1u64 << 63, 2));
    }

    /// The raw-bucket merge path must saturate the same way: the top
    /// bucket's representative is 2^63, so two merged counts overflow a
    /// plain `rep * c` product.
    #[test]
    fn raw_bucket_merge_saturates_the_top_bucket() {
        let mut counts = [0u64; HIST_BUCKETS];
        counts[HIST_BUCKETS - 1] = 3;
        let mut r = Registry::new();
        r.observe_buckets("deep", &counts);
        let s = r.snapshot_and_reset();
        let h = s.histogram("deep").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, u64::MAX);
        assert_eq!((h.min, h.max), (1u64 << 63, 1u64 << 63));
    }

    #[test]
    fn snapshot_is_sorted_and_resets() {
        let mut r = Registry::new();
        r.counter_add("zeta", 2);
        r.counter_add("alpha", 1);
        r.counter_add("zeta", 3);
        r.gauge_set("inflight", -4);
        r.observe("lat", 0);
        r.observe("lat", 2);
        r.observe("lat", 3);
        let s = r.snapshot_and_reset();
        let names: Vec<&str> = s.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(s.counter("zeta"), Some(5));
        assert_eq!(s.gauges[0].value, -4);
        let h = s.histogram("lat").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 5, 0, 3));
        assert_eq!(h.buckets.len(), 2, "sparse buckets only");
        assert_eq!((h.buckets[0].lo, h.buckets[0].count), (0, 1));
        assert_eq!((h.buckets[1].lo, h.buckets[1].count), (2, 2));
        // reset: the next phase starts clean
        let s2 = r.snapshot_and_reset();
        assert!(s2.counters.is_empty() && s2.histograms.is_empty());
    }

    #[test]
    fn raw_bucket_merge_matches_direct_observation_shape() {
        let mut counts = [0u64; HIST_BUCKETS];
        counts[1] = 3; // three observations of ~1
        counts[4] = 1; // one observation in [8, 16)
        let mut r = Registry::new();
        r.observe_buckets("queue_depth", &counts);
        let s = r.snapshot_and_reset();
        let h = s.histogram("queue_depth").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 3 + 8);
        assert_eq!((h.min, h.max), (1, 8));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut r = Registry::new();
        r.counter_add("c", 7);
        r.observe("h", 9);
        let s = r.snapshot_and_reset();
        let text = serde_json::to_string(&s);
        let v = serde_json::from_str(&text).unwrap();
        let back = RegistrySnapshot::from_value(&v).unwrap();
        assert_eq!(back, s);
    }
}
