//! Typed metrics: counters, gauges, log-linear histograms, and the
//! registry that names them.
//!
//! Every handle is a cheap `Arc` clone around atomics, so subsystems
//! resolve their counters once (at construction) and bump them from any
//! thread without locks. The registry itself is only locked to *create*
//! or *enumerate* metrics, never on the hot path.
//!
//! Determinism rules (see DESIGN.md "Observability"):
//! - counters and histograms only ever record integers derived from
//!   simulation state, so their values are reproducible per seed —
//!   except counters whose name ends in `_ns`, which hold wall-clock
//!   nanoseconds and are excluded from normalized trace dumps;
//! - gauges store exact `f64` bit patterns (no accumulation-order
//!   dependence for idempotent `set`), so byte-conservation tests can
//!   compare them with `==`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing integer metric.
///
/// Additions saturate at `u64::MAX` instead of wrapping: a counter that
/// overflows pins at the ceiling rather than silently restarting from a
/// small number (the "counter wrap guard").
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        // fetch_add would wrap; saturate via CAS instead. Contention is
        // negligible (a few counters per subsystem).
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins floating-point metric (also supports `add` for
/// accumulating quantities like backoff seconds).
///
/// The value is stored as raw `f64` bits in an `AtomicU64`, so a `set`
/// followed by `get` round-trips the exact bit pattern — conservation
/// tests can use exact equality against the simulator's own numbers.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `v` to the current value (CAS loop).
    pub fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.0.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// Sub-bucket bits of the histogram layout: each power of two is split
/// into `2^SUB_BITS` = 64 linear sub-buckets, so a bucket is never wider
/// than 1/64 of the values it holds.
const SUB_BITS: u32 = 6;

/// Buckets in the layout: values 0–63 get one each, then 64 sub-buckets
/// for each of the 58 powers of two from 2^6 up to 2^63.
const BUCKETS: usize = (1 << SUB_BITS) + (64 - SUB_BITS as usize) * (1 << SUB_BITS);

/// The bucket holding `v`. Values below 128 map to themselves; above
/// that, the bucket is the value's top seven bits offset by its
/// power-of-two group.
#[inline]
fn bucket_of(v: u64) -> usize {
    let shift = (u64::BITS - v.leading_zeros()).saturating_sub(SUB_BITS + 1);
    ((shift << SUB_BITS) as u64 + (v >> shift)) as usize
}

/// The highest value that lands in bucket `i` (inverse of [`bucket_of`]).
fn bucket_high(i: usize) -> u64 {
    let shift = (i >> SUB_BITS).saturating_sub(1);
    let top = (i - (shift << SUB_BITS)) as u64;
    (top << shift) | ((1u64 << shift) - 1)
}

#[derive(Debug)]
struct HistState {
    buckets: Box<[AtomicU64]>,
    count: Counter,
    sum: Counter,
    min: AtomicU64,
    max: AtomicU64,
}

/// A histogram over all of `u64` with one fixed HDR-style log-linear
/// layout: values 0–63 get a bucket each, and every power of two above
/// that is split into 64 linear sub-buckets (3776 buckets in all, the
/// index computed from `leading_zeros`).
///
/// A quantile answers the highest value of the bucket holding its rank,
/// clamped to `[min, max]`: it never under-reports the exact sample and
/// exceeds it by at most 1/64. Because every histogram shares the
/// layout, merging is plain bucket-wise addition and loses nothing.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistState>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistState {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: Counter::default(),
            sum: Counter::default(),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.incr();
        self.0.sum.add(v);
        self.0.min.fetch_min(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.get()
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.0.sum.get()
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.0.min.load(Ordering::Relaxed))
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.0.max.load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), or `None` when empty. The rank
    /// is `ceil(q·count)` (at least 1); the answer is the highest value
    /// of the bucket holding that rank, clamped to `[min, max]`, so it
    /// lies in `[exact, exact·(1 + 1/64)]` of the exact sample.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let (min, max) = (self.min()?, self.max()?);
        let target = ((q.clamp(0.0, 1.0) * self.count() as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for i in bucket_of(min)..=bucket_of(max) {
            seen += self.0.buckets[i].load(Ordering::Relaxed);
            if seen >= target {
                // Not `clamp`: it panics if a concurrent `reset` leaves
                // `min > max` for a moment.
                return Some(bucket_high(i).min(max).max(min));
            }
        }
        Some(max)
    }

    /// Median.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Forget every sample: zero the buckets, count and sum, and empty
    /// `min`/`max`.
    pub fn reset(&self) {
        for b in self.0.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.0.count.reset();
        self.0.sum.reset();
        self.0.min.store(u64::MAX, Ordering::Relaxed);
        self.0.max.store(0, Ordering::Relaxed);
    }

    /// Add `other`'s samples bucket by bucket; count, sum, min and max
    /// carry over exactly.
    fn absorb(&self, other: &Histogram) {
        for (dst, src) in self.0.buckets.iter().zip(other.0.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.0.count.add(other.count());
        self.0.sum.add(other.sum());
        if let (Some(lo), Some(hi)) = (other.min(), other.max()) {
            self.0.min.fetch_min(lo, Ordering::Relaxed);
            self.0.max.fetch_max(hi, Ordering::Relaxed);
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named collection of metrics. Cloning shares the underlying store;
/// `get-or-create` accessors make wiring idempotent.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        inner.histograms.entry(name.to_string()).or_default().clone()
    }

    /// Fold `other`'s metrics into `self`: counters and histograms add,
    /// gauges sum. Used to aggregate per-worker or per-subsystem
    /// registries into one view.
    pub fn merge(&self, other: &Registry) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return;
        }
        let snapshot = other.handles();
        for (name, c) in snapshot.0 {
            self.counter(&name).add(c.get());
        }
        for (name, g) in snapshot.1 {
            self.gauge(&name).add(g.get());
        }
        for (name, h) in snapshot.2 {
            self.histogram(&name).absorb(&h);
        }
    }

    #[allow(clippy::type_complexity)]
    fn handles(&self) -> (Vec<(String, Counter)>, Vec<(String, Gauge)>, Vec<(String, Histogram)>) {
        let inner = self.inner.lock().expect("registry lock poisoned");
        (
            inner.counters.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            inner.gauges.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            inner.histograms.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        )
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let (counters, gauges, histograms) = self.handles();
        Snapshot {
            counters: counters.into_iter().map(|(k, v)| (k, v.get())).collect(),
            gauges: gauges.into_iter().map(|(k, v)| (k, v.get())).collect(),
            histograms: histograms
                .into_iter()
                .map(|(k, v)| {
                    (
                        k,
                        HistogramSnapshot {
                            count: v.count(),
                            sum: v.sum(),
                            min: v.min(),
                            max: v.max(),
                            p50: v.p50(),
                            p95: v.p95(),
                            p99: v.p99(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Frozen summary of one histogram inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Smallest sample, if any.
    pub min: Option<u64>,
    /// Largest sample, if any.
    pub max: Option<u64>,
    /// Median (within 1/64 above the exact sample).
    pub p50: Option<u64>,
    /// 95th percentile (within 1/64 above the exact sample).
    pub p95: Option<u64>,
    /// 99th percentile (within 1/64 above the exact sample).
    pub p99: Option<u64>,
}

/// A point-in-time copy of a [`Registry`], sorted by metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Look up a counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Look up a gauge by name (0.0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bucket_counts(h: &Histogram) -> Vec<u64> {
        h.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// The `ceil(q·n)`-th smallest sample: the rank rule `quantile` uses.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    /// `reported` lies in `[exact, exact·(1 + 1/64)]`.
    fn within_error_bound(reported: u64, exact: u64) -> bool {
        reported >= exact && u128::from(reported) * 64 <= u128::from(exact) * 65
    }

    /// Samples spread over every magnitude of `u64`.
    fn sample() -> impl Strategy<Value = u64> {
        (0..u64::MAX, 0u32..64).prop_map(|(v, shift)| v >> shift)
    }

    #[test]
    fn counter_basics() {
        let c = Counter::default();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_wrap_guard_saturates() {
        let c = Counter::default();
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX, "overflowing counter must pin, not wrap");
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_round_trips_exact_bits() {
        let g = Gauge::default();
        let v = 1_234.567_890_123_f64;
        g.set(v);
        assert_eq!(g.get().to_bits(), v.to_bits());
        g.add(0.5);
        assert_eq!(g.get(), v + 0.5);
    }

    #[test]
    fn layout_covers_u64_in_order() {
        assert_eq!(BUCKETS, 3776);
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_high(BUCKETS - 1), u64::MAX);
        // Every bucket starts one past the previous bucket's high value.
        for i in 1..BUCKETS {
            let low = bucket_high(i - 1) + 1;
            assert_eq!(bucket_of(low), i, "bucket {i} must start at {low}");
            assert_eq!(bucket_of(bucket_high(i)), i);
        }
    }

    #[test]
    fn empty_histogram_quantiles_are_none() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p95(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn single_sample_histogram() {
        let h = Histogram::default();
        h.record(4_242);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 4_242);
        assert_eq!(h.min(), Some(4_242));
        assert_eq!(h.max(), Some(4_242));
        // The bucket runs to 4_287; the clamp to [min, max] makes a lone
        // sample exact.
        assert_eq!(h.p50(), Some(4_242));
        assert_eq!(h.p99(), Some(4_242));
    }

    #[test]
    fn samples_near_u64_max_keep_error_bound() {
        let h = Histogram::default();
        let top = u64::MAX - (1 << 57) + 1; // low edge of the last bucket
        h.record(top);
        h.record(u64::MAX - 7);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "the sum saturates instead of wrapping");
        assert_eq!(h.max(), Some(u64::MAX));
        // All three share the last bucket; its high value is u64::MAX.
        assert_eq!(h.quantile(0.01), Some(u64::MAX));
        assert!(within_error_bound(u64::MAX, top));
        let h = Histogram::default();
        h.record(u64::MAX / 3);
        h.record(u64::MAX / 2);
        let p50 = h.p50().unwrap();
        assert!(within_error_bound(p50, u64::MAX / 3), "p50 {p50}");
        assert_eq!(h.quantile(1.0), Some(u64::MAX / 2));
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        // 0–127 are exact; 128 and 129 share a two-wide bucket.
        let h = Histogram::default();
        h.record(127);
        h.record(128);
        h.record(129);
        h.record(130);
        assert_eq!(h.quantile(0.25), Some(127));
        assert_eq!(h.quantile(0.5), Some(129), "128 answers its bucket's high value");
        assert_eq!(h.quantile(0.75), Some(129));
        assert_eq!(h.quantile(1.0), Some(130));
    }

    #[test]
    fn histogram_quantiles_walk_buckets() {
        let h = Histogram::default();
        for v in 1..=16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.p50(), Some(8));
        assert_eq!(h.p95(), Some(16));
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(16));
    }

    #[test]
    fn histogram_reset_forgets_every_sample() {
        let h = Histogram::default();
        h.record(5);
        h.record(9_000);
        h.reset();
        assert_eq!((h.count(), h.sum(), h.min(), h.max(), h.p50()), (0, 0, None, None, None));
        assert!(bucket_counts(&h).iter().all(|n| *n == 0));
        h.record(7);
        assert_eq!((h.min(), h.max(), h.p99()), (Some(7), Some(7), Some(7)));
    }

    #[test]
    fn registry_get_or_create_shares_handles() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        assert_eq!(b.get(), 3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("x"), 3);
    }

    #[test]
    fn registry_merge_aggregates_workers() {
        // Worker-pool aggregation: two per-worker registries fold into
        // one view with counters added, gauges summed, histograms
        // bucket-merged.
        let w1 = Registry::new();
        let w2 = Registry::new();
        w1.counter("jobs").add(3);
        w2.counter("jobs").add(4);
        w1.gauge("bytes").set(1.5);
        w2.gauge("bytes").set(2.5);
        w1.histogram("lat").record(5);
        w2.histogram("lat").record(50);
        w2.histogram("lat").record(500);

        let total = Registry::new();
        total.merge(&w1);
        total.merge(&w2);
        let snap = total.snapshot();
        assert_eq!(snap.counter("jobs"), 7);
        assert_eq!(snap.gauge("bytes"), 4.0);
        let h = &snap.histograms["lat"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 555);
        assert_eq!(h.min, Some(5));
        assert_eq!(h.max, Some(500));
        assert_eq!(h.p50, Some(50));
    }

    #[test]
    fn shard_merge_equals_direct_recording() {
        // Per-shard aggregation is lossless: merging N shard histograms
        // gives the same snapshot as recording every sample into one.
        let samples: [&[u64]; 3] = [&[5, 40, 900], &[12, 12, 3_000], &[75]];
        let direct = Registry::new();
        let dh = direct.histogram("lat");
        let total = Registry::new();
        for shard_samples in samples {
            let shard = Registry::new();
            let h = shard.histogram("lat");
            for s in shard_samples {
                h.record(*s);
                dh.record(*s);
            }
            total.merge(&shard);
        }
        assert_eq!(total.snapshot(), direct.snapshot());
    }

    #[test]
    fn merge_self_is_noop() {
        let r = Registry::new();
        r.counter("x").add(5);
        r.merge(&r.clone());
        assert_eq!(r.counter("x").get(), 5);
    }

    proptest! {
        /// Every quantile lies in `[exact, exact·(1 + 1/64)]` of the
        /// `ceil(q·n)`-th sorted sample, and inside `[min, max]`.
        #[test]
        fn quantiles_stay_within_error_bound(
            mut samples in proptest::collection::vec(sample(), 1..200),
            qs in proptest::collection::vec(0.0f64..1.0, 1..8),
        ) {
            let h = Histogram::default();
            for s in &samples {
                h.record(*s);
            }
            samples.sort_unstable();
            let (min, max) = (samples[0], samples[samples.len() - 1]);
            for q in qs.into_iter().chain([0.0, 0.5, 0.95, 0.99, 1.0]) {
                let got = h.quantile(q).unwrap();
                let exact = exact_quantile(&samples, q);
                prop_assert!(within_error_bound(got, exact), "q={} got {} exact {}", q, got, exact);
                prop_assert!((min..=max).contains(&got), "q={} got {} outside [{}, {}]", q, got, min, max);
            }
        }

        /// Merging any partition of the samples across registries equals
        /// recording them all into one histogram, bucket for bucket.
        #[test]
        fn merge_of_any_partition_equals_direct_recording(
            tagged in proptest::collection::vec((sample(), 0usize..4), 0..200),
        ) {
            let direct = Histogram::default();
            let shards: Vec<Registry> = (0..4).map(|_| Registry::new()).collect();
            for (v, shard) in &tagged {
                direct.record(*v);
                shards[*shard].histogram("lat").record(*v);
            }
            let total = Registry::new();
            for shard in &shards {
                total.merge(shard);
            }
            let merged = total.histogram("lat");
            prop_assert_eq!(bucket_counts(&merged), bucket_counts(&direct));
            prop_assert_eq!(
                (merged.count(), merged.sum(), merged.min(), merged.max()),
                (direct.count(), direct.sum(), direct.min(), direct.max())
            );
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                prop_assert_eq!(merged.quantile(q), direct.quantile(q));
            }
        }
    }
}
