//! Named counters, gauges and fixed-bucket log-scale latency histograms.
//!
//! Everything here is lock-free on the hot path: a metric handle is an
//! [`Arc`] around atomics, so recording a sample is a handful of relaxed
//! atomic ops. The registry itself takes a mutex only on first
//! registration of a name (get-or-create) and when snapshotting.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of power-of-two nanosecond buckets. Bucket `i` covers
/// `[2^i, 2^(i+1))` ns (bucket 0 also absorbs 0 ns), so 48 buckets span
/// from 1 ns to ~78 hours — far beyond any span this codebase records.
pub const HISTOGRAM_BUCKETS: usize = 48;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned metrics mutex only means another thread panicked while
    // registering a metric; the map itself is still consistent.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding the latest observed `f64` value (stored as bits).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the gauge to `value`.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket log-scale (power-of-two nanoseconds) latency histogram.
///
/// Recording a sample is three relaxed atomic ops (bucket increment,
/// sum add, max update); quantiles are computed only at snapshot time.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

fn bucket_index(nanos: u64) -> usize {
    if nanos <= 1 {
        return 0;
    }
    let idx = 63 - nanos.leading_zeros() as usize;
    idx.min(HISTOGRAM_BUCKETS - 1)
}

/// Upper bound (inclusive) of bucket `idx`, in nanoseconds — used as the
/// quantile estimate and as the `le` bound in the Prometheus exporter.
pub fn bucket_upper(idx: usize) -> u64 {
    if idx + 1 >= 64 {
        u64::MAX
    } else {
        (1u64 << (idx + 1)) - 1
    }
}

impl Histogram {
    /// Record one sample of `nanos` nanoseconds.
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(nanos, Ordering::Relaxed);
        self.max_ns.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Immutable snapshot with estimated quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum_ns = self.sum_ns.load(Ordering::Relaxed);
        let max_ns = self.max_ns.load(Ordering::Relaxed);
        let buckets: [u64; HISTOGRAM_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // 1-based rank of the sample at quantile q.
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    // The true sample lies somewhere inside the bucket;
                    // report its upper bound clamped to the observed max.
                    return bucket_upper(i).min(max_ns);
                }
            }
            max_ns
        };
        HistogramSnapshot {
            count,
            sum_ns,
            max_ns,
            p50_ns: quantile(0.50),
            p95_ns: quantile(0.95),
            p99_ns: quantile(0.99),
            buckets,
        }
    }
}

/// Point-in-time view of a [`Histogram`], with bucket-resolution quantiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples, in nanoseconds.
    pub sum_ns: u64,
    /// Largest sample, in nanoseconds.
    pub max_ns: u64,
    /// Estimated 50th-percentile latency (bucket upper bound), ns.
    pub p50_ns: u64,
    /// Estimated 95th-percentile latency (bucket upper bound), ns.
    pub p95_ns: u64,
    /// Estimated 99th-percentile latency (bucket upper bound), ns.
    pub p99_ns: u64,
    /// Per-bucket sample counts (bucket `i` covers `[2^i, 2^(i+1))` ns);
    /// feeds the cumulative `le` buckets of the Prometheus exporter.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            p50_ns: 0,
            p95_ns: 0,
            p99_ns: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

/// The metric named `name` in `map`, created on first use (a hit does
/// not allocate).
fn get_or_create<T: Default>(map: &Mutex<HashMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = lock(map);
    if let Some(metric) = map.get(name) {
        return Arc::clone(metric);
    }
    let metric = Arc::<T>::default();
    map.insert(name.to_string(), Arc::clone(&metric));
    metric
}

/// A registry of named metrics. Handles are `Arc`s, so callers can cache
/// them and record without touching the registry lock again.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    gauges: Mutex<HashMap<String, Arc<Gauge>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Snapshot every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, c) in lock(&self.counters).iter() {
            snap.counters.insert(name.clone(), c.get());
        }
        for (name, g) in lock(&self.gauges).iter() {
            snap.gauges.insert(name.clone(), g.get());
        }
        for (name, h) in lock(&self.histograms).iter() {
            snap.histograms.insert(name.clone(), h.snapshot());
        }
        snap
    }
}

/// A point-in-time, owned view of a set of metrics, mergeable across
/// layers (engine + proxy + repair) into one report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Set (overwrite) a counter value.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Set (overwrite) a gauge value.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Set (overwrite) a histogram snapshot.
    pub fn set_histogram(&mut self, name: &str, snap: HistogramSnapshot) {
        self.histograms.insert(name.to_string(), snap);
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram snapshot by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Merge `other` into `self`: counters add, gauges and histograms
    /// take `other`'s value on name collision (last writer wins).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            self.histograms.insert(name.clone(), *h);
        }
    }

    /// True when no metric of any kind is present.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_single_sample() {
        let h = Histogram::default();
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.max_ns, 1000);
        // Single sample: every quantile is that sample's bucket, clamped
        // to the observed max.
        assert_eq!(s.p50_ns, 1000);
        assert_eq!(s.p95_ns, 1000);
        assert_eq!(s.p99_ns, 1000);
    }

    #[test]
    fn histogram_quantiles_spread() {
        let h = Histogram::default();
        // 90 fast samples (~100ns), 10 slow ones (~1ms).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert!(
            s.p50_ns < 256,
            "p50 {} should be in the fast bucket",
            s.p50_ns
        );
        assert!(
            s.p95_ns >= 524_288,
            "p95 {} should be in the slow bucket",
            s.p95_ns
        );
        assert_eq!(s.max_ns, 1_000_000);
        assert!(s.p99_ns <= s.max_ns);
    }

    #[test]
    fn registry_handles_are_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(2);
        b.add(1);
        assert_eq!(reg.counter("x").get(), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x"), 3);
    }

    #[test]
    fn snapshot_merge_adds_counters() {
        let mut a = MetricsSnapshot::default();
        a.set_counter("c", 2);
        a.set_gauge("g", 1.0);
        let mut b = MetricsSnapshot::default();
        b.set_counter("c", 3);
        b.set_gauge("g", 2.5);
        b.set_histogram(
            "h",
            HistogramSnapshot {
                count: 1,
                ..Default::default()
            },
        );
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.gauge("g"), Some(2.5));
        assert_eq!(a.histogram("h").map(|h| h.count), Some(1));
    }
}
