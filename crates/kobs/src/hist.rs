//! Log-bucketed latency histograms.
//!
//! Promoted from `simprims::hist` so every layer (broker, streams, bench,
//! simtest) shares one histogram type through the metrics registry; the
//! figure-reproduction binaries report end-to-end latency percentiles
//! (record create time → read-committed consumer receive time, as in the
//! paper's §4.3 setup) from it.

use std::sync::OnceLock;

/// A simple log-bucketed latency histogram over millisecond values.
///
/// Buckets grow geometrically so a single histogram covers sub-millisecond
/// to multi-minute latencies with bounded memory and ~4% relative error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// bucket i covers `[bucket_lower_bound(i), bucket_lower_bound(i+1))`.
    counts: Vec<u64>,
    total: u64,
    sum_ms: u128,
    min_ms: i64,
    max_ms: i64,
}

const GROWTH: f64 = 1.08;
const NUM_BUCKETS: usize = 256;

/// Integer bucket lower bounds, derived once from the geometric growth
/// factor and then made *strictly increasing* so every bucket is reachable
/// and `bucket_lower_bound(bucket_for(ms)) <= ms` holds exactly — the
/// floating-point formulation previously left buckets 1..=9 unreachable
/// (no integer mapped to them) while `ms == 0` and `ms == 1` landed ~9
/// buckets apart with identical reported lower bounds.
fn bounds() -> &'static [i64; NUM_BUCKETS] {
    static BOUNDS: OnceLock<[i64; NUM_BUCKETS]> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut b = [0i64; NUM_BUCKETS];
        for i in 1..NUM_BUCKETS {
            let geometric = (GROWTH.powi(i as i32) - 1.0).floor() as i64;
            b[i] = geometric.max(b[i - 1] + 1);
        }
        b
    })
}

fn bucket_for(ms: i64) -> usize {
    let ms = ms.max(0);
    // First bucket whose lower bound exceeds `ms`, minus one.
    bounds().partition_point(|&lb| lb <= ms) - 1
}

fn bucket_lower_bound(idx: usize) -> i64 {
    bounds()[idx.min(NUM_BUCKETS - 1)]
}

impl LatencyHistogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            sum_ms: 0,
            min_ms: i64::MAX,
            max_ms: i64::MIN,
        }
    }

    /// Record one latency observation in milliseconds (negative values are
    /// clamped to zero — they can arise from clock granularity).
    pub fn record(&mut self, ms: i64) {
        let ms = ms.max(0);
        self.counts[bucket_for(ms)] += 1;
        self.total += 1;
        self.sum_ms += ms as u128;
        self.min_ms = self.min_ms.min(ms);
        self.max_ms = self.max_ms.max(ms);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum_ms as f64 / self.total as f64
    }

    /// Minimum observed latency in milliseconds (0 when empty).
    pub fn min_ms(&self) -> i64 {
        if self.total == 0 {
            0
        } else {
            self.min_ms
        }
    }

    /// Maximum observed latency in milliseconds (0 when empty).
    pub fn max_ms(&self) -> i64 {
        if self.total == 0 {
            0
        } else {
            self.max_ms
        }
    }

    /// Approximate percentile (`q` in [0, 1]) in milliseconds.
    pub fn percentile_ms(&self, q: f64) -> i64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_lower_bound(i).clamp(self.min_ms, self.max_ms);
            }
        }
        self.max_ms
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ms += other.sum_ms;
        if other.total > 0 {
            self.min_ms = self.min_ms.min(other.min_ms);
            self.max_ms = self.max_ms.max(other.max_ms);
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ms(), 0.0);
        assert_eq!(h.percentile_ms(0.5), 0);
        assert_eq!(h.min_ms(), 0);
        assert_eq!(h.max_ms(), 0);
    }

    #[test]
    fn single_value() {
        let mut h = LatencyHistogram::new();
        h.record(100);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean_ms(), 100.0);
        assert_eq!(h.min_ms(), 100);
        assert_eq!(h.max_ms(), 100);
        let p50 = h.percentile_ms(0.5);
        assert!((90..=110).contains(&p50), "p50={p50}");
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut h = LatencyHistogram::new();
        for i in 0..1000 {
            h.record(i);
        }
        let p50 = h.percentile_ms(0.5);
        let p90 = h.percentile_ms(0.9);
        let p99 = h.percentile_ms(0.99);
        assert!(p50 <= p90 && p90 <= p99, "p50={p50} p90={p90} p99={p99}");
        assert!((400..620).contains(&p50), "p50={p50}");
        assert!((800..1010).contains(&p90), "p90={p90}");
    }

    #[test]
    fn negative_latencies_clamped() {
        let mut h = LatencyHistogram::new();
        h.record(-5);
        assert_eq!(h.min_ms(), 0);
        assert_eq!(h.mean_ms(), 0.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min_ms(), 10);
        assert_eq!(a.max_ms(), 1000);
    }

    #[test]
    fn large_values_do_not_overflow_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(i64::MAX / 2);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn bucket_boundaries_are_strictly_increasing_and_start_at_zero() {
        assert_eq!(bucket_lower_bound(0), 0);
        for i in 1..NUM_BUCKETS {
            assert!(
                bucket_lower_bound(i) > bucket_lower_bound(i - 1),
                "bucket {i}: {} <= {}",
                bucket_lower_bound(i),
                bucket_lower_bound(i - 1)
            );
        }
    }

    #[test]
    fn bucket_zero_holds_exactly_ms_zero() {
        // The old float formulation mapped ms=0 to bucket 0 and ms=1 to
        // bucket 9, leaving buckets 1..=9 dead; with integer bounds the
        // small buckets are each one millisecond wide.
        assert_eq!(bucket_for(0), 0);
        assert_eq!(bucket_for(1), 1);
        assert_eq!(bucket_for(2), 2);
        assert!(bucket_for(1) == bucket_for(0) + 1, "no dead buckets at the origin");
    }

    #[test]
    fn every_bucket_lower_bound_maps_back_to_its_bucket() {
        for i in 0..NUM_BUCKETS {
            let lb = bucket_lower_bound(i);
            assert_eq!(bucket_for(lb), i, "lower bound {lb} of bucket {i}");
            assert!(lb >= 0);
        }
    }

    #[test]
    fn bucket_lower_bound_never_exceeds_recorded_value() {
        for ms in [0i64, 1, 2, 3, 7, 10, 99, 100, 101, 1000, 12345, 1 << 40] {
            let b = bucket_for(ms);
            assert!(bucket_lower_bound(b) <= ms, "ms={ms} bucket={b}");
            if b + 1 < NUM_BUCKETS {
                assert!(bucket_lower_bound(b + 1) > ms, "ms={ms} bucket={b}");
            }
        }
    }

    #[test]
    fn small_value_percentiles_are_exact() {
        // Values 0..=9 each occupy their own one-millisecond bucket, so
        // percentiles over small distributions are exact, not ~4% off.
        let mut h = LatencyHistogram::new();
        for v in 0..10 {
            h.record(v);
        }
        assert_eq!(h.percentile_ms(0.5), 4);
        assert_eq!(h.percentile_ms(1.0), 9);
        assert_eq!(h.percentile_ms(0.1), 0);
    }

    #[test]
    fn known_distribution_p50_p99() {
        // 1000 samples at 10 ms, 10 samples at 1000 ms: p50 must sit at
        // 10 ms (±4%) and p99 still below the outliers; p999 reaches them.
        let mut h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        let p50 = h.percentile_ms(0.5);
        assert!((9..=10).contains(&p50), "p50={p50}");
        let p99 = h.percentile_ms(0.99);
        assert!((9..=10).contains(&p99), "p99={p99}");
        let p999 = h.percentile_ms(0.999);
        assert!((920..=1000).contains(&p999), "p999={p999}");
    }
}
