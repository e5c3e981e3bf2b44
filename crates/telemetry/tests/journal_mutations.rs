//! The journal reader never panics. `parse_jsonl_journal` is the one text
//! reader the workspace keeps (`figures trace` reads its own journal back
//! through it). Each case takes the first lines of the committed seed-42
//! trace journal, applies one mutation — a truncation, a few substituted
//! characters, a spliced line fragment or a bumped schema version — and
//! checks the parser returns `Ok` or a typed `JournalError` that names a
//! real line.

use std::path::Path;
use std::sync::OnceLock;

use nfv_telemetry::{
    parse_jsonl_journal, JournalError, TelemetryArtifacts, JOURNAL_SCHEMA_VERSION,
};
use proptest::prelude::*;

/// Lines of `results/trace_resilience.jsonl` the mutations start from
/// (the header and 399 events).
const LINES: usize = 400;

/// JSON-significant characters, a control byte and multi-byte ones.
const ALPHABET: &str = "\"\\{}[]:,\n 09-.enu\0\u{e9}\u{1f600}";

fn journal() -> &'static str {
    static JOURNAL: OnceLock<String> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/trace_resilience.jsonl");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        text.lines()
            .take(LINES)
            .flat_map(|line| [line, "\n"])
            .collect()
    })
}

/// The char boundary at or before byte `at`, clamped to the text.
fn boundary(text: &str, at: usize) -> usize {
    let mut at = at.min(text.len());
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Parses `text` (a panic fails the test) and checks what came back:
/// one event per data line, or an error that fits the text.
fn parse_checked(text: &str) -> Result<usize, JournalError> {
    let lines = text.lines().count();
    let result = parse_jsonl_journal(text).map(|events| events.len());
    match &result {
        Ok(events) => assert_eq!(*events + 1, lines, "one event per data line"),
        Err(JournalError::Malformed { line }) => {
            assert!((2..=lines).contains(line), "line {line} of {lines}");
        }
        Err(JournalError::SchemaMismatch { found, expected }) => assert_ne!(found, expected),
        Err(JournalError::MissingHeader) => {}
    }
    result
}

#[test]
fn the_unmutated_journal_round_trips() {
    let text = journal();
    let events = parse_jsonl_journal(text).expect("the committed journal parses");
    assert_eq!(events.len(), LINES - 1);
    let artifacts = TelemetryArtifacts {
        events,
        ..TelemetryArtifacts::default()
    };
    assert_eq!(artifacts.journal_jsonl(), text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A cut at a line end leaves a shorter valid journal; any other cut
    /// leaves an unterminated last line, refused at that line.
    #[test]
    fn truncated_journals_are_read_up_to_the_cut(at in 0usize..usize::MAX) {
        let text = journal();
        let cut = &text[..boundary(text, at % (text.len() + 1))];
        let lines = cut.lines().count();
        let expected = if cut.ends_with(['}', '\n']) {
            Ok(lines - 1)
        } else if lines <= 1 {
            Err(JournalError::MissingHeader)
        } else {
            Err(JournalError::Malformed { line: lines })
        };
        prop_assert_eq!(parse_checked(cut), expected);
    }

    #[test]
    fn substituted_characters_never_panic(
        count in 1usize..5,
        positions in prop::collection::vec(0usize..usize::MAX, 4),
        picks in prop::collection::vec(0usize..20, 4),
    ) {
        let mut text = journal().to_owned();
        for (&at, &pick) in positions.iter().zip(&picks).take(count) {
            let at = boundary(&text, at % (text.len() + 1));
            let end = text[at..].chars().next().map_or(at, |c| at + c.len_utf8());
            let with = ALPHABET.chars().nth(pick).expect("the alphabet has 20 chars");
            text.replace_range(at..end, with.encode_utf8(&mut [0; 4]));
        }
        let _ = parse_checked(&text);
    }

    #[test]
    fn spliced_line_fragments_never_panic(
        line in 0usize..LINES,
        from in 0usize..usize::MAX,
        len in 1usize..160,
        at in 0usize..usize::MAX,
    ) {
        let text = journal();
        let source = text.lines().nth(line).expect("the journal has LINES lines");
        let start = boundary(source, from % (source.len() + 1));
        let fragment = &source[start..boundary(source, start + len)];
        let at = boundary(text, at % (text.len() + 1));
        let spliced = format!("{}{fragment}{}", &text[..at], &text[at..]);
        let _ = parse_checked(&spliced);
    }

    /// A version this build does not write is refused before any event
    /// line is read; one beyond `u32` is no header at all.
    #[test]
    fn bumped_schema_versions_are_refused(narrow in 0u32..64, wide in 0u64..u64::MAX) {
        let text = journal();
        let header = format!("{{\"schema_version\":{JOURNAL_SCHEMA_VERSION}}}");
        for version in [u64::from(narrow), wide] {
            if version == u64::from(JOURNAL_SCHEMA_VERSION) {
                continue;
            }
            let bumped = text.replacen(&header, &format!("{{\"schema_version\":{version}}}"), 1);
            let expected = match u32::try_from(version) {
                Ok(found) => JournalError::SchemaMismatch {
                    found,
                    expected: JOURNAL_SCHEMA_VERSION,
                },
                Err(_) => JournalError::MissingHeader,
            };
            prop_assert_eq!(parse_checked(&bumped), Err(expected));
        }
    }
}
