//! Prometheus text-format (version 0.0.4) exporter for
//! [`MetricsSnapshot`].
//!
//! Internal dotted metric names (`engine.commit.count`) become legal
//! Prometheus names under a `resildb_` prefix
//! (`resildb_engine_commit_count_total`); histograms export their full
//! power-of-two nanosecond bucket ladder as cumulative `le` buckets
//! plus `_sum`/`_count`. Output iterates sorted maps, so two exports of
//! the same snapshot are byte-identical.

use crate::metrics::{bucket_upper, HistogramSnapshot, MetricsSnapshot};

/// Sanitize a dotted internal name into a legal Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`) under the `resildb_` prefix.
pub(crate) fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 8);
    out.push_str("resildb_");
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn push_header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {}\n", escape_help(help)));
    out.push_str(&format!("# TYPE {name} {kind}\n"));
}

fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

fn push_histogram(out: &mut String, raw: &str, h: &HistogramSnapshot) {
    let name = format!("{}_ns", metric_name(raw));
    push_header(
        out,
        &name,
        "histogram",
        &format!("Latency histogram for {raw} (nanoseconds)."),
    );
    // Cumulative buckets up to the highest occupied one; every sample is
    // also covered by +Inf, which always equals _count.
    let highest = h.buckets.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
    let mut cumulative = 0u64;
    for (i, &n) in h.buckets.iter().take(highest).enumerate() {
        cumulative += n;
        out.push_str(&format!(
            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            bucket_upper(i)
        ));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
    out.push_str(&format!("{name}_sum {}\n", h.sum_ns));
    out.push_str(&format!("{name}_count {}\n", h.count));
}

/// Render a snapshot in the Prometheus text exposition format.
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (raw, v) in &snap.counters {
        let name = format!("{}_total", metric_name(raw));
        push_header(&mut out, &name, "counter", &format!("Counter {raw}."));
        out.push_str(&format!("{name} {v}\n"));
    }
    for (raw, v) in &snap.gauges {
        let name = metric_name(raw);
        push_header(&mut out, &name, "gauge", &format!("Gauge {raw}."));
        out.push_str(&format!("{name} {}\n", format_value(*v)));
    }
    for (raw, h) in &snap.histograms {
        push_histogram(&mut out, raw, h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn sample_snapshot() -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.counter("engine.commit.count").add(7);
        reg.counter("proxy.fence.rejected").add(3);
        reg.gauge("repair.live.fence_size").set(12.0);
        for ns in [100, 100, 900, 1_023, 4_000, 1_000_000] {
            reg.histogram("engine.execute").record(ns);
        }
        reg.snapshot()
    }

    fn is_legal_name(name: &str) -> bool {
        let mut chars = name.chars();
        let first_ok = chars
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
        first_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    /// Every exported line must satisfy the Prometheus text-format grammar:
    /// legal metric names, only the `le` label, a numeric sample value.
    #[test]
    fn names_and_labels_are_legal() {
        let text = to_prometheus(&sample_snapshot());
        assert!(!text.is_empty());
        for line in text.lines() {
            let name = if let Some(rest) = line.strip_prefix("# HELP ") {
                rest.split_whitespace().next().unwrap()
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                rest.split_whitespace().next().unwrap()
            } else {
                // A sample line is exactly `name[{labels}] value`.
                let (metric, value) = line.split_once(' ').unwrap();
                assert!(
                    value == "NaN" || value.bytes().all(|b| b"0123456789.eE+-".contains(&b)),
                    "malformed sample value in {line:?}"
                );
                if let Some((base, labels)) = metric.split_once('{') {
                    let labels = labels.strip_suffix('}').unwrap();
                    assert!(
                        labels.starts_with("le=\"") && labels.ends_with('"'),
                        "unexpected label set {labels:?}"
                    );
                    base
                } else {
                    metric
                }
            };
            assert!(is_legal_name(name), "illegal metric name {name:?}");
            assert!(name.starts_with("resildb_"), "unprefixed name {name:?}");
        }
    }

    #[test]
    fn help_and_type_precede_every_family() {
        let text = to_prometheus(&sample_snapshot());
        for family in [
            ("resildb_engine_commit_count_total", "counter"),
            ("resildb_proxy_fence_rejected_total", "counter"),
            ("resildb_repair_live_fence_size", "gauge"),
            ("resildb_engine_execute_ns", "histogram"),
        ] {
            let (name, kind) = family;
            assert!(
                text.contains(&format!("# HELP {name} ")),
                "no HELP for {name}"
            );
            assert!(
                text.contains(&format!("# TYPE {name} {kind}\n")),
                "no TYPE {kind} for {name}"
            );
        }
    }

    /// Histogram buckets must be cumulative: non-decreasing in `le`
    /// order, with the `+Inf` bucket equal to `_count`.
    #[test]
    fn histogram_buckets_are_cumulative() {
        let snap = sample_snapshot();
        let text = to_prometheus(&snap);
        let mut les = Vec::new();
        let mut counts = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("resildb_engine_execute_ns_bucket{le=\"") {
                let (le, rest) = rest.split_once("\"}").unwrap();
                les.push(le.to_string());
                counts.push(rest.trim().parse::<u64>().unwrap());
            }
        }
        assert!(counts.len() >= 2, "expected several buckets: {text}");
        assert_eq!(les.last().map(String::as_str), Some("+Inf"));
        // Finite le bounds strictly increase.
        let finite: Vec<u64> = les[..les.len() - 1]
            .iter()
            .map(|le| le.parse().unwrap())
            .collect();
        assert!(finite.windows(2).all(|w| w[0] < w[1]), "{finite:?}");
        // Cumulative counts never decrease and end at the sample count.
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        let total = snap.histogram("engine.execute").unwrap().count;
        assert_eq!(*counts.last().unwrap(), total);
        assert!(text.contains(&format!("resildb_engine_execute_ns_count {total}\n")));
    }

    #[test]
    fn double_export_is_byte_identical() {
        let snap = sample_snapshot();
        assert_eq!(
            to_prometheus(&snap).into_bytes(),
            to_prometheus(&snap).into_bytes()
        );
    }

    #[test]
    fn dotted_names_are_sanitized() {
        assert_eq!(
            metric_name("engine.commit.count"),
            "resildb_engine_commit_count"
        );
        assert_eq!(metric_name("weird name-1"), "resildb_weird_name_1");
    }

    #[test]
    fn nonfinite_gauges_use_prometheus_spelling() {
        let mut snap = MetricsSnapshot::default();
        snap.set_gauge("g", f64::INFINITY);
        assert!(to_prometheus(&snap).contains("resildb_g +Inf\n"));
    }
}
