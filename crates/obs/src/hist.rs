//! Log-bucketed latency histograms (HDR-style), thread-safe and
//! mergeable.
//!
//! Values (nanoseconds, or any nonnegative `u64`) land in buckets laid
//! out log-linearly: [`SUB_BUCKETS`] linear sub-buckets per octave, so
//! every bucket's width is at most `1/SUB_BUCKETS` of its lower bound —
//! a quantile read off a bucket boundary is within ~3.2% of the exact
//! order statistic, while the whole range `0..=u64::MAX` fits in
//! [`NUM_BUCKETS`] (= 1920) counters.
//!
//! [`Histogram`] is the concurrent recording side: every bucket is an
//! `AtomicU64`, so `record` is wait-free (one indexed `fetch_add` plus
//! count/sum/min/max updates) and any number of threads can share one
//! histogram without locks. [`HistogramSnapshot`] is the frozen read
//! side: quantile extraction, mean, and an associative commutative
//! [`HistogramSnapshot::merge`] for combining per-thread (or per-shard)
//! histograms — bucket counts add, so merging never loses resolution.
//!
//! The quantile contract, pinned by the proptests in this module's test
//! suite: for any recorded multiset, `quantile(q)` falls in **the same
//! bucket** as the exact rank-`⌈q·count⌉` element of the sorted values
//! (the estimate is the bucket's upper bound clamped to the observed
//! `[min, max]`).

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the sub-buckets per octave.
pub const SUB_BITS: u32 = 5;

/// Linear sub-buckets per octave (32): the resolution knob.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Total buckets covering `0..=u64::MAX`.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// Bucket index of a value: identity below [`SUB_BUCKETS`], then
/// log-linear — the octave of the value's most significant bit selects
/// a group of [`SUB_BUCKETS`] buckets and the next `SUB_BITS` bits
/// select within the group.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        (((shift + 1) as usize) << SUB_BITS) | ((v >> shift) as usize & (SUB_BUCKETS - 1))
    }
}

/// Smallest value mapping to bucket `i` (inverse of [`bucket_index`]).
#[inline]
pub fn bucket_lower(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        i as u64
    } else {
        let shift = (i >> SUB_BITS) - 1;
        ((SUB_BUCKETS | (i & (SUB_BUCKETS - 1))) as u64) << shift
    }
}

/// Largest value mapping to bucket `i`.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i + 1 < NUM_BUCKETS {
        bucket_lower(i + 1) - 1
    } else {
        u64::MAX
    }
}

/// A concurrent log-bucketed histogram. `record` is wait-free; reads go
/// through [`Histogram::snapshot`].
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram (all [`NUM_BUCKETS`] counters at zero).
    pub fn new() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value (relaxed atomics — counters, not synchronisation).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a wall-time duration in nanoseconds (saturating at
    /// `u64::MAX` — ~584 years).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Freeze the current counters into a read-side snapshot.
    ///
    /// Concurrent recorders may land between the individual loads, so a
    /// snapshot taken under load is a *consistent-enough* point-in-time
    /// view (each counter is exact; they may straddle a record by one).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Frozen histogram state: quantiles, mean, merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with nothing recorded.
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The quantile estimate for `q ∈ [0, 1]`: the upper bound of the
    /// bucket holding the rank-`⌈q·count⌉` value (rank clamped to
    /// `[1, count]`), clamped to the observed `[min, max]`. Returns 0
    /// when nothing was recorded. The estimate always lands in the same
    /// bucket as the exact order statistic.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merge another snapshot in (bucket-wise addition): associative and
    /// commutative, so per-thread shards combine in any order to the
    /// same result.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_layout_is_a_partition() {
        // Lower bounds are strictly increasing and each upper bound is
        // one below the next lower bound — no gaps, no overlaps.
        for i in 0..NUM_BUCKETS - 1 {
            assert!(bucket_lower(i) < bucket_lower(i + 1), "bucket {i}");
            assert_eq!(bucket_upper(i) + 1, bucket_lower(i + 1), "bucket {i}");
        }
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn index_and_bounds_agree_on_probes() {
        let probes = [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1_000,
            12_345,
            1 << 20,
            (1 << 40) + 7,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "{v}");
            assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "{v} -> {i}");
        }
    }

    #[test]
    fn bucket_width_bounds_relative_error() {
        // Above the linear region the bucket width is < 1/SUB_BUCKETS of
        // the lower bound — the quantile resolution guarantee.
        for i in SUB_BUCKETS..NUM_BUCKETS - 1 {
            let lo = bucket_lower(i);
            let width = bucket_upper(i) - lo + 1;
            assert!(
                (width as f64) <= lo as f64 / SUB_BUCKETS as f64 + 1.0,
                "bucket {i}: width {width} vs lower {lo}"
            );
        }
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
    }

    #[test]
    fn single_value_quantiles_collapse() {
        let h = Histogram::new();
        h.record(1_000_000);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = s.quantile(q);
            assert_eq!(
                bucket_index(est),
                bucket_index(1_000_000),
                "q={q}: {est} off-bucket"
            );
        }
        assert_eq!(s.min(), 1_000_000);
        assert_eq!(s.max(), 1_000_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i % 997);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 40_000);
    }

    /// Exact oracle: the rank-`⌈q·n⌉` element of the sorted sample.
    fn oracle(sorted: &[u64], q: f64) -> u64 {
        let n = sorted.len() as u64;
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        sorted[(rank - 1) as usize]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn quantiles_within_one_bucket_of_sorted_oracle(
            samples in collection::vec(0u64..2_000_000_000, 1..400),
            qs in collection::vec(0.0f64..1.0, 1..8),
        ) {
            let h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            let snap = h.snapshot();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            prop_assert_eq!(snap.count(), samples.len() as u64);
            prop_assert_eq!(snap.min(), sorted[0]);
            prop_assert_eq!(snap.max(), *sorted.last().unwrap());
            for &q in &qs {
                let est = snap.quantile(q);
                let exact = oracle(&sorted, q);
                let (bi, be) = (bucket_index(est), bucket_index(exact));
                prop_assert!(
                    bi.abs_diff(be) <= 1,
                    "q={}: estimate {} (bucket {}) vs exact {} (bucket {})",
                    q, est, bi, exact, be
                );
            }
        }

        #[test]
        fn merge_is_associative_and_commutative_across_shards(
            shard_a in collection::vec(0u64..1_000_000_000, 0..120),
            shard_b in collection::vec(0u64..1_000_000_000, 0..120),
            shard_c in collection::vec(0u64..1_000_000_000, 0..120),
        ) {
            let snap = |vals: &[u64]| {
                let h = Histogram::new();
                for &v in vals {
                    h.record(v);
                }
                h.snapshot()
            };
            let (a, b, c) = (snap(&shard_a), snap(&shard_b), snap(&shard_c));
            // (a ∪ b) ∪ c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a ∪ (b ∪ c)
            let mut right_inner = b.clone();
            right_inner.merge(&c);
            let mut right = a.clone();
            right.merge(&right_inner);
            // c ∪ b ∪ a (commuted)
            let mut commuted = c.clone();
            commuted.merge(&b);
            commuted.merge(&a);
            prop_assert_eq!(&left, &right);
            prop_assert_eq!(&left, &commuted);
            // Merged shards equal one histogram over the union.
            let mut union: Vec<u64> = shard_a.clone();
            union.extend(&shard_b);
            union.extend(&shard_c);
            prop_assert_eq!(&left, &snap(&union));
        }
    }
}
