//! Named atomic metrics: counters, gauges, and fixed-bucket histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::export::{HistogramSnapshot, RegistrySnapshot};

/// Number of histogram buckets: a 1-2-5 log series spanning 1 .. 5e11,
/// plus an implicit overflow bucket tracked by `HISTOGRAM_BUCKETS`'s end.
pub(crate) const HISTOGRAM_BUCKETS: usize = 36;

/// Upper bounds (inclusive) of the value buckets. Values are raw `u64`s —
/// callers pick the unit (spans record nanoseconds, byte counters record
/// bytes) and the 1-2-5 series keeps relative error under ~2.5x per bucket
/// across eleven decades.
pub(crate) fn bucket_bound(index: usize) -> u64 {
    let (decade, step) = (index / 3, index % 3);
    [1u64, 2, 5][step] * 10u64.pow(decade as u32)
}

/// [`bucket_bound`] for every index, computed at compile time so recording
/// is a binary search over a table instead of a linear scan of `pow` calls.
const BUCKET_BOUNDS: [u64; HISTOGRAM_BUCKETS] = {
    let mut bounds = [0u64; HISTOGRAM_BUCKETS];
    let mut decade = 1u64;
    let mut i = 0;
    while i < HISTOGRAM_BUCKETS {
        bounds[i] = [1u64, 2, 5][i % 3] * decade;
        if i % 3 == 2 {
            decade *= 10;
        }
        i += 1;
    }
    bounds
};

/// The bucket `value` lands in (the first whose bound is `>= value`), or
/// `None` for the overflow bucket.
#[inline]
fn bucket_index(value: u64) -> Option<usize> {
    let index = BUCKET_BOUNDS.partition_point(|&bound| bound < value);
    (index < HISTOGRAM_BUCKETS).then_some(index)
}

struct HistogramInner {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    overflow: AtomicU64,
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl HistogramInner {
    fn new() -> HistogramInner {
        HistogramInner {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn load_snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot::from_raw(
            self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            self.overflow.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
            self.count.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// A monotonically increasing named counter.
///
/// Cheap to clone; cache one per hot path rather than re-looking it up by
/// name. When the owning registry is disabled, `inc`/`add` are a relaxed
/// load and a branch.
#[derive(Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A named signed gauge (current level, not a rate).
#[derive(Clone)]
pub struct Gauge {
    value: Arc<AtomicI64>,
    enabled: Arc<AtomicBool>,
}

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Moves the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

/// A fixed-bucket histogram over raw `u64` values.
///
/// Buckets follow a 1-2-5 log series from 1 to 5e11 with an overflow
/// bucket above, so one shape serves nanosecond latencies and byte sizes
/// alike. Recording is wait-free (three relaxed `fetch_add`s plus a CAS
/// loop for the max); quantiles are estimated at snapshot time by linear
/// interpolation inside the containing bucket.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
    enabled: Arc<AtomicBool>,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        match bucket_index(value) {
            Some(i) => self.inner.counts[i].fetch_add(1, Ordering::Relaxed),
            None => self.inner.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Adds every observation tallied in `local`, as if each had been
    /// passed to [`Histogram::record`]. Hot loops record into a
    /// [`LocalHistogram`] and merge once at the end, so the shared atomics
    /// see one update per bucket used instead of one per observation.
    pub fn merge(&self, local: &LocalHistogram) {
        if local.count == 0 || !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        for (slot, &n) in self.inner.counts.iter().zip(&local.counts) {
            if n != 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
        if local.overflow != 0 {
            self.inner.overflow.fetch_add(local.overflow, Ordering::Relaxed);
        }
        self.inner.sum.fetch_add(local.sum, Ordering::Relaxed);
        self.inner.count.fetch_add(local.count, Ordering::Relaxed);
        self.inner.max.fetch_max(local.max, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (the convention spans use).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Whether the owning registry currently records (used by cached span
    /// handles to decide if the clock needs reading).
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the full distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.inner.load_snapshot()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// An unshared tally with the same buckets as [`Histogram`]: plain
/// integers, no atomics. Record into one per unit of work (a session, a
/// batch) and flush it with [`Histogram::merge`]. Sum and count wrap on
/// overflow exactly like the shared histogram's `fetch_add`s do.
#[derive(Debug)]
pub struct LocalHistogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    overflow: u64,
    sum: u64,
    count: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> LocalHistogram {
        LocalHistogram::new()
    }
}

impl LocalHistogram {
    /// An empty tally.
    pub const fn new() -> LocalHistogram {
        LocalHistogram { counts: [0; HISTOGRAM_BUCKETS], overflow: 0, sum: 0, count: 0, max: 0 }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let slot = match bucket_index(value) {
            Some(i) => &mut self.counts[i],
            None => &mut self.overflow,
        };
        *slot = slot.wrapping_add(1);
        self.sum = self.sum.wrapping_add(value);
        self.count = self.count.wrapping_add(1);
        self.max = self.max.max(value);
    }
}

/// A registry of named metrics.
///
/// Lookup (`counter`/`gauge`/`histogram`) takes a short mutex on the name
/// table and hands back a clonable handle bound to the underlying atomic;
/// all recording after that is lock-free. Looking up an existing name
/// allocates nothing, but the mutex is shared by every thread: resolve
/// handles once, outside per-session and per-chunk loops. The shared
/// enabled flag turns every handle into a near-no-op when cleared.
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramInner>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty, enabled registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            enabled: Arc::new(AtomicBool::new(true)),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Turns all recording through this registry's handles on or off.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is currently on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Handle to the counter `name`, creating it at zero if new.
    pub fn counter(&self, name: &str) -> Counter {
        let value = intern(&self.counters, name, || AtomicU64::new(0));
        Counter { value, enabled: self.enabled.clone() }
    }

    /// Handle to the gauge `name`, creating it at zero if new.
    pub fn gauge(&self, name: &str) -> Gauge {
        let value = intern(&self.gauges, name, || AtomicI64::new(0));
        Gauge { value, enabled: self.enabled.clone() }
    }

    /// Handle to the histogram `name`, creating it empty if new.
    pub fn histogram(&self, name: &str) -> Histogram {
        let inner = intern(&self.histograms, name, HistogramInner::new);
        Histogram { inner, enabled: self.enabled.clone() }
    }

    /// Point-in-time copy of every metric.
    ///
    /// The process-wide Chrome-trace collector's drop count
    /// ([`crate::trace_dropped`]) is surfaced as a synthetic
    /// `obs.events_dropped` counter so silent event loss is visible in both
    /// the JSON and Prometheus renderings, not just the dedicated field.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let events_dropped = crate::trace_dropped();
        let mut counters: BTreeMap<String, u64> = self
            .counters
            .lock()
            .iter()
            .map(|(name, v)| (name.clone(), v.load(Ordering::Relaxed)))
            .collect();
        counters.insert("obs.events_dropped".to_string(), events_dropped);
        let gauges = self
            .gauges
            .lock()
            .iter()
            .map(|(name, v)| (name.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|(name, inner)| (name.clone(), inner.load_snapshot()))
            .collect();
        RegistrySnapshot { counters, gauges, histograms, events_dropped }
    }
}

/// The entry `name` of `table`, inserting `make()` if absent. A hit
/// allocates nothing; only a first registration copies the name.
fn intern<T>(
    table: &Mutex<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    let mut table = table.lock();
    if let Some(existing) = table.get(name) {
        return existing.clone();
    }
    let created = Arc::new(make());
    table.insert(name.to_owned(), created.clone());
    created
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_1_2_5_series() {
        assert_eq!(bucket_bound(0), 1);
        assert_eq!(bucket_bound(1), 2);
        assert_eq!(bucket_bound(2), 5);
        assert_eq!(bucket_bound(3), 10);
        assert_eq!(bucket_bound(4), 20);
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS - 1), 500_000_000_000);
    }

    #[test]
    fn const_bounds_table_matches_bucket_bound() {
        for (i, &bound) in BUCKET_BOUNDS.iter().enumerate() {
            assert_eq!(bound, bucket_bound(i), "bound {i}");
        }
    }

    /// Every bound, every bound + 1, zero, just past the last bound, and
    /// the largest value: the places a bucket search can be off by one.
    fn edge_values() -> Vec<u64> {
        let mut edges = vec![0, bucket_bound(HISTOGRAM_BUCKETS - 1) + 1, u64::MAX];
        for i in 0..HISTOGRAM_BUCKETS {
            edges.extend([bucket_bound(i), bucket_bound(i) + 1]);
        }
        edges
    }

    #[test]
    fn table_search_picks_the_linear_search_bucket() {
        for v in edge_values() {
            let linear = (0..HISTOGRAM_BUCKETS).find(|&i| v <= bucket_bound(i));
            assert_eq!(bucket_index(v), linear, "value {v}");
        }
    }

    fn raw(h: &Histogram) -> (Vec<u64>, u64, u64, u64, u64) {
        let inner = &h.inner;
        (
            inner.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            inner.overflow.load(Ordering::Relaxed),
            inner.sum.load(Ordering::Relaxed),
            inner.count.load(Ordering::Relaxed),
            inner.max.load(Ordering::Relaxed),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]
        #[test]
        fn merged_local_histogram_equals_direct_recording(
            picks in proptest::collection::vec((0usize..256, 0u64..=u64::MAX), 0..120),
            split in 0usize..120,
        ) {
            // Half the picks hit an edge value, the rest are uniform u64s.
            let edges = edge_values();
            let mut values: Vec<u64> = picks
                .iter()
                .map(|&(k, any)| edges.get(k % (2 * edges.len())).copied().unwrap_or(any))
                .collect();
            values.extend(&edges);
            let reg = MetricsRegistry::new();
            let direct = reg.histogram("direct");
            let merged = reg.histogram("merged");
            // Two tallies merged in turn, so merge also adds onto a
            // non-empty histogram.
            let (head, tail) = values.split_at(split.min(values.len()));
            for part in [head, tail] {
                let mut local = LocalHistogram::new();
                for &v in part {
                    direct.record(v);
                    local.record(v);
                }
                proptest::prop_assert_eq!(local.count, part.len() as u64);
                merged.merge(&local);
            }
            proptest::prop_assert_eq!(raw(&merged), raw(&direct));
            proptest::prop_assert_eq!(merged.snapshot(), direct.snapshot());
        }
    }

    #[test]
    fn disabled_registry_ignores_merges() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h");
        let mut local = LocalHistogram::new();
        local.record(7);
        reg.set_enabled(false);
        h.merge(&local);
        assert_eq!(h.count(), 0);
        reg.set_enabled(true);
        h.merge(&local);
        assert_eq!((h.count(), h.sum()), (1, 7));
    }

    #[test]
    fn counters_and_gauges_track_values() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("x").get(), 5);

        let g = reg.gauge("level");
        g.set(10);
        g.add(-3);
        assert_eq!(reg.gauge("level").get(), 7);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x");
        let h = reg.histogram("h");
        reg.set_enabled(false);
        c.inc();
        h.record(42);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        reg.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn histogram_counts_sum_and_max() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for v in [1u64, 3, 3, 1000, 7_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1 + 3 + 3 + 1000 + 7_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.max, 7_000_000);
        assert_eq!(snap.count, 5);
    }

    #[test]
    fn values_beyond_last_bound_land_in_overflow() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("big");
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.quantile(0.5) >= bucket_bound(HISTOGRAM_BUCKETS - 1) as f64);
    }
}
