//! Exporters: Prometheus text exposition and a hand-rolled JSON dump.
//!
//! The vendored `serde` stand-in has no serializers, so both formats
//! are written by hand. Output is a
//! pure function of the [`Registry`] contents (`BTreeMap` iteration,
//! shortest-round-trip float formatting), so exports inherit the
//! registry's byte-identity across thread counts.

use std::fmt::Write as _;

use crate::json::escape_into;
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

/// Reverses [`escape_label`]. Returns `None` for a dangling or unknown
/// escape — an unparseable label value.
#[must_use]
pub fn unescape_label(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            _ => return None,
        }
    }
    Some(out)
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

    /// The registry as one hand-rolled JSON object:
    /// `{"counters":{…},"gauges":{…},"histograms":{…}}` with histogram
    /// values as nested objects. Byte-stable for identical contents.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (key, value)) in self.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_key(&mut out, key);
            let _ = write!(out, "{value}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (key, value)) in self.gauges().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_key(&mut out, key);
            push_json_f64(&mut out, value);
        }
        out.push_str("},\"histograms\":{");
        for (i, (key, histogram)) in self.histograms().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_key(&mut out, key);
            let (lo, _) = histogram.bin_range(0);
            let (_, hi) = histogram.bin_range(histogram.bins() - 1);
            out.push_str("{\"lo\":");
            push_json_f64(&mut out, lo);
            out.push_str(",\"hi\":");
            push_json_f64(&mut out, hi);
            let _ = write!(
                out,
                ",\"underflow\":{},\"overflow\":{},\"bins\":[",
                histogram.underflow(),
                histogram.overflow()
            );
            for j in 0..histogram.bins() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", histogram.bin_count(j));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

fn push_json_key(out: &mut String, key: &str) {
    out.push('"');
    escape_into(out, key);
    out.push_str("\":");
}

/// JSON floats follow the journal convention: shortest-round-trip for
/// finite values, tagged strings for non-finite ones.
fn push_json_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else if value.is_nan() {
        out.push_str("\"nan\"");
    } else if value > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_escaping_round_trips_awkward_values() {
        for value in ["plain", "a\"b", "back\\slash", "new\nline", "üñíçø∂é", ""] {
            let escaped = escape_label(value);
            assert!(!escaped.contains('\n'), "escaped form is single-line");
            assert_eq!(unescape_label(&escaped).as_deref(), Some(value));
        }
    }

    #[test]
    fn unescape_rejects_dangling_and_unknown_escapes() {
        assert_eq!(unescape_label("dangling\\"), None);
        assert_eq!(unescape_label("bad\\t"), None);
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
