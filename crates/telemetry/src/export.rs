//! Exporters: Prometheus text exposition and a JSON dump.
//!
//! The vendored `serde` stand-in has no serializers, so the Prometheus
//! text is written by hand and the JSON dump goes through the crate's
//! one JSON writer, [`JsonObject`]. Output is a
//! pure function of the [`Registry`] contents (`BTreeMap` iteration,
//! shortest-round-trip float formatting), so exports inherit the
//! registry's byte-identity across thread counts.

use std::fmt::Write as _;

use crate::json::JsonObject;
use crate::registry::Registry;

/// Escapes a Prometheus label value: `\` → `\\`, `"` → `\"`, newline →
/// `\n` (the exposition-format rules).
#[must_use]
pub fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Splits a registry key into its bare metric name and an optional
/// rendered label set (`name{a="b"}` → `("name", Some("a=\"b\""))`).
fn split_key(key: &str) -> (&str, Option<&str>) {
    match key.find('{') {
        Some(at) if key.ends_with('}') => (&key[..at], Some(&key[at + 1..key.len() - 1])),
        _ => (key, None),
    }
}

/// Joins an optional existing label set with one extra label.
fn with_label(labels: Option<&str>, extra: &str) -> String {
    match labels {
        Some(labels) => format!("{{{labels},{extra}}}"),
        None => format!("{{{extra}}}"),
    }
}

impl Registry {
    /// The registry in the Prometheus text exposition format: `# TYPE`
    /// lines, counter/gauge samples, and histograms as cumulative
    /// `_bucket{le="…"}` series plus a `_count` sample. Byte-stable for
    /// identical contents.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: Option<String> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            if typed.as_deref() != Some(name) {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                typed = Some(name.to_string());
            }
        };
        for (key, value) in self.counters() {
            let (name, _) = split_key(key);
            type_line(&mut out, name, "counter");
            let _ = writeln!(out, "{key} {value}");
        }
        let mut typed: Option<String> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            if typed.as_deref() != Some(name) {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                typed = Some(name.to_string());
            }
        };
        for (key, value) in self.gauges() {
            let (name, _) = split_key(key);
            type_line(&mut out, name, "gauge");
            let _ = writeln!(out, "{key} {value}");
        }
        let mut typed: Option<String> = None;
        for (key, histogram) in self.histograms() {
            let (name, labels) = split_key(key);
            if typed.as_deref() != Some(name) {
                let _ = writeln!(out, "# TYPE {name} histogram");
                typed = Some(name.to_string());
            }
            // Buckets are cumulative from -inf, so the underflow counts
            // into every bucket; the +Inf bucket equals the total count
            // (overflow included).
            let mut cumulative = histogram.underflow();
            for i in 0..histogram.bins() {
                cumulative += histogram.bin_count(i);
                let (_, le) = histogram.bin_range(i);
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {cumulative}",
                    with_label(labels, &format!("le=\"{le}\""))
                );
            }
            let _ = writeln!(
                out,
                "{name}_bucket{} {}",
                with_label(labels, "le=\"+Inf\""),
                histogram.count()
            );
            match labels {
                Some(labels) => {
                    let _ = writeln!(out, "{name}_count{{{labels}}} {}", histogram.count());
                }
                None => {
                    let _ = writeln!(out, "{name}_count {}", histogram.count());
                }
            }
        }
        out
    }

    /// The registry as one JSON object:
    /// `{"counters":{…},"gauges":{…},"histograms":{…}}` with histogram
    /// values as nested objects. Byte-stable for identical contents.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut counters = JsonObject::new();
        for (key, value) in self.counters() {
            counters.field_u64(key, value);
        }
        let mut gauges = JsonObject::new();
        for (key, value) in self.gauges() {
            gauges.field_f64(key, value);
        }
        let mut histograms = JsonObject::new();
        for (key, histogram) in self.histograms() {
            let (lo, _) = histogram.bin_range(0);
            let (_, hi) = histogram.bin_range(histogram.bins() - 1);
            let mut h = JsonObject::new();
            h.field_f64("lo", lo)
                .field_f64("hi", hi)
                .field_u64("underflow", histogram.underflow())
                .field_u64("overflow", histogram.overflow())
                .field_u64s(
                    "bins",
                    (0..histogram.bins()).map(|j| histogram.bin_count(j)),
                );
            histograms.field_object(key, h);
        }
        let mut out = JsonObject::new();
        out.field_object("counters", counters)
            .field_object("gauges", gauges)
            .field_object("histograms", histograms);
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_escaping_follows_the_exposition_rules() {
        for (value, escaped) in [
            ("plain", "plain"),
            ("a\"b", "a\\\"b"),
            ("back\\slash", "back\\\\slash"),
            ("new\nline", "new\\nline"),
            ("üñíçø∂é", "üñíçø∂é"),
            ("", ""),
        ] {
            assert_eq!(escape_label(value), escaped);
        }
    }

    #[test]
    fn prometheus_renders_types_samples_and_buckets() {
        let mut reg = Registry::new();
        reg.counter_add("admitted_total", 7);
        reg.counter_add(Registry::labeled("events_total", "shard", "0"), 3);
        reg.gauge_set("active", 2.5);
        reg.histogram_record(
            Registry::labeled("latency_seconds", "tenant", "3"),
            0.0,
            1.0,
            2,
            0.25,
        );
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE admitted_total counter\nadmitted_total 7\n"));
        assert!(text.contains("events_total{shard=\"0\"} 3\n"));
        assert!(text.contains("# TYPE active gauge\nactive 2.5\n"));
        assert!(text.contains("# TYPE latency_seconds histogram\n"));
        assert!(text.contains("latency_seconds_bucket{tenant=\"3\",le=\"0.5\"} 1\n"));
        assert!(text.contains("latency_seconds_bucket{tenant=\"3\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("latency_seconds_count{tenant=\"3\"} 1\n"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative_with_underflow() {
        let mut reg = Registry::new();
        for x in [-0.5, 0.1, 0.1, 0.9, 2.0] {
            reg.histogram_record("h", 0.0, 1.0, 2, x);
        }
        let text = reg.to_prometheus();
        assert!(text.contains("h_bucket{le=\"0.5\"} 3\n"), "{text}");
        assert!(text.contains("h_bucket{le=\"1\"} 4\n"), "{text}");
        assert!(text.contains("h_bucket{le=\"+Inf\"} 5\n"), "{text}");
        assert!(text.contains("h_count 5\n"), "{text}");
    }

    #[test]
    fn json_dump_nests_histograms_and_stays_stable() {
        let mut reg = Registry::new();
        reg.counter_add("c", 1);
        reg.gauge_set("g", 0.5);
        reg.histogram_record("h", 0.0, 1.0, 2, 0.75);
        let json = reg.to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"c\":1},\"gauges\":{\"g\":0.5},\"histograms\":\
             {\"h\":{\"lo\":0,\"hi\":1,\"underflow\":0,\"overflow\":0,\"bins\":[0,1]}}}"
        );
        assert_eq!(json, reg.to_json());
    }

    #[test]
    fn empty_registry_exports_cleanly() {
        let reg = Registry::new();
        assert_eq!(reg.to_prometheus(), "");
        assert_eq!(
            reg.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }
}
