//! The JSON exporter for [`MetricsSnapshot`]; the text format is
//! Prometheus ([`crate::to_prometheus`]). Names appear in sorted order
//! (the snapshot's maps are ordered), so two exports of one registry
//! state are byte-identical and bench artifacts diff cleanly.

use crate::json::JsonWriter;
use crate::metrics::MetricsSnapshot;

/// Render a snapshot as a JSON object with `counters`, `gauges` and
/// `histograms` maps, each keyed by metric name.
pub fn to_json(snap: &MetricsSnapshot) -> String {
    JsonWriter::render(|w| write_json(w, snap))
}

/// Write the [`to_json`] object into a larger document.
pub fn write_json(w: &mut JsonWriter, snap: &MetricsSnapshot) {
    w.object(|w| {
        w.key("counters").object(|w| {
            for (name, v) in &snap.counters {
                w.field(name, *v);
            }
        });
        w.key("gauges").object(|w| {
            for (name, v) in &snap.gauges {
                w.field(name, *v);
            }
        });
        w.key("histograms").object(|w| {
            for (name, h) in &snap.histograms {
                w.key(name).object(|w| {
                    w.field("count", h.count)
                        .field("p50_ns", h.p50_ns)
                        .field("p95_ns", h.p95_ns)
                        .field("p99_ns", h.p99_ns)
                        .field("max_ns", h.max_ns)
                        .field("sum_ns", h.sum_ns);
                });
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.set_counter("proxy.rewrite_cache.hits", 42);
        snap.set_counter("engine.commit.count", 7);
        snap.set_gauge("sim.pool.hit_ratio", 0.96875);
        snap.set_histogram(
            "engine.execute",
            HistogramSnapshot {
                count: 10,
                sum_ns: 12_345,
                max_ns: 4_000,
                p50_ns: 1_023,
                p95_ns: 4_000,
                p99_ns: 4_000,
                ..Default::default()
            },
        );
        snap
    }

    #[test]
    fn json_parses_shape() {
        let json = to_json(&sample_snapshot());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"counters\":{"));
        assert!(json.contains("\"engine.commit.count\":7"));
        assert!(json.contains("\"sim.pool.hit_ratio\":0.96875"));
        assert!(json.contains("\"p95_ns\":4000"));
    }

    /// Exports are deterministic: two snapshots of the same registry
    /// state serialize byte-identically (keys in sorted order, stable
    /// number formatting), so bench artifacts diff cleanly across runs.
    #[test]
    fn repeated_exports_are_byte_identical() {
        let registry = crate::MetricsRegistry::default();
        registry.counter("proxy.rewrite_cache.hits").add(42);
        registry.counter("engine.commit.count").add(7);
        registry.gauge("sim.pool.hit_ratio").set(0.96875);
        for ns in [900, 1_023, 4_000] {
            registry.histogram("engine.execute").record(ns);
        }
        let (a, b) = (registry.snapshot(), registry.snapshot());
        assert_eq!(to_json(&a).into_bytes(), to_json(&b).into_bytes());
        // Keys appear in sorted order, independent of insertion order.
        let json = to_json(&a);
        let engine = json.find("\"engine.commit.count\"").unwrap();
        let proxy = json.find("\"proxy.rewrite_cache.hits\"").unwrap();
        assert!(engine < proxy);
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut snap = MetricsSnapshot::default();
        snap.set_counter("a\"b\\c\n", 1);
        assert!(to_json(&snap).contains("{\"a\\\"b\\\\c\\n\":1}"));
    }

    #[test]
    fn nonfinite_gauges_serialize_as_zero() {
        let mut snap = MetricsSnapshot::default();
        snap.set_gauge("a", f64::NAN);
        snap.set_gauge("b", f64::INFINITY);
        snap.set_gauge("c", 1.5);
        assert!(to_json(&snap).contains("{\"a\":0,\"b\":0,\"c\":1.5}"));
    }
}
