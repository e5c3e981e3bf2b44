//! Property tests for exporter escaping: Prometheus label values and
//! journal JSON strings must round-trip arbitrary cause slugs and
//! tenant names — quotes, backslashes, control bytes, non-ASCII — and
//! never produce unparseable output.

use nfv_telemetry::json::{get_str, parse_object, JsonObject};
use nfv_telemetry::{escape_label, Registry};
use proptest::prelude::*;

/// The inverse of [`escape_label`], for checking that escaping loses
/// nothing. `None` for a dangling or unknown escape. The export is
/// write-only, so the reader lives here rather than in the crate.
fn unescape_label(s: &str) -> Option<String> {
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

/// The adversarial alphabet: every escape-relevant character plus ASCII,
/// control bytes, and non-ASCII code points (accented, CJK, emoji).
const PALETTE: [char; 20] = [
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{1}',
    '\u{7}',
    '\u{1f}',
    ' ',
    'a',
    'Z',
    '0',
    '_',
    '-',
    '{',
    '}',
    '\u{e9}',
    '\u{fc}',
    '\u{4e2d}',
    '\u{1f600}',
];

fn assemble(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|&i| PALETTE[i % PALETTE.len()])
        .collect()
}

proptest! {
    #[test]
    fn prometheus_labels_round_trip(indices in prop::collection::vec(0usize..PALETTE.len(), 0..32)) {
        let value = assemble(&indices);
        let escaped = escape_label(&value);
        prop_assert!(!escaped.contains('\n'), "escaped labels are single-line");
        prop_assert_eq!(unescape_label(&escaped), Some(value));
    }

    #[test]
    fn json_strings_round_trip(indices in prop::collection::vec(0usize..PALETTE.len(), 0..32)) {
        let value = assemble(&indices);
        let mut obj = JsonObject::new();
        obj.field_str("cause", &value);
        let text = obj.finish();
        let fields = parse_object(&text).unwrap();
        prop_assert_eq!(get_str(&fields, "cause"), Some(value.as_str()));
    }

    #[test]
    fn labeled_registry_keys_export_parseable_prometheus(
        indices in prop::collection::vec(0usize..PALETTE.len(), 0..16),
    ) {
        let value = assemble(&indices);
        let mut reg = Registry::new();
        reg.counter_add(Registry::labeled("events_total", "tenant", &value), 1);
        let text = reg.to_prometheus();
        // The sample line must be `events_total{tenant="escaped"} 1`
        // with the original value recoverable from the escaped form.
        let sample = text
            .lines()
            .find(|l| !l.starts_with('#'))
            .expect("one sample line");
        prop_assert!(sample.starts_with("events_total{tenant=\""), "{}", sample);
        prop_assert!(sample.ends_with("\"} 1"), "{}", sample);
        let inner = &sample["events_total{tenant=\"".len()..sample.len() - "\"} 1".len()];
        prop_assert_eq!(unescape_label(inner), Some(value));
    }

    #[test]
    fn postmortem_causes_survive_the_journal_json_layer(
        indices in prop::collection::vec(0usize..PALETTE.len(), 0..24),
    ) {
        // Cause slugs flow through `EventKind::TenantQuarantined` into
        // journal JSON; the builder + parser pair must round-trip them.
        let cause = assemble(&indices);
        let mut obj = JsonObject::new();
        obj.field_str("event", "TenantQuarantined")
            .field_u64("tenant", 3)
            .field_str("cause", &cause);
        let fields = parse_object(&obj.finish()).unwrap();
        prop_assert_eq!(get_str(&fields, "cause"), Some(cause.as_str()));
    }
}
