//! The journal file formats: the schema headers
//! [`TelemetryArtifacts::journal_jsonl`] and
//! [`TelemetryArtifacts::journal_csv`] stamp, and the JSONL parser that
//! checks its header. The CSV journal is write-only: nothing in the
//! workspace reads it back.
//!
//! [`TelemetryArtifacts::journal_jsonl`]: crate::TelemetryArtifacts::journal_jsonl
//! [`TelemetryArtifacts::journal_csv`]: crate::TelemetryArtifacts::journal_csv

use crate::event::{TraceEvent, CSV_HEADER};
use crate::json::{get_u64, parse_object, JsonObject};

/// Schema version stamped at the top of every JSONL/CSV journal file.
/// Bump it when the journal shape changes; [`parse_jsonl_journal`]
/// rejects mismatched files with a typed [`JournalError`] instead of
/// silently misreading drifted schemas.
pub const JOURNAL_SCHEMA_VERSION: u32 = 1;

/// Why a journal file was refused at parse time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The file does not start with a schema-version header.
    MissingHeader,
    /// The file's schema version differs from this build's.
    SchemaMismatch {
        /// The version found in the file.
        found: u32,
        /// The version this build writes ([`JOURNAL_SCHEMA_VERSION`]).
        expected: u32,
    },
    /// A data line failed to parse (1-based line number in the file).
    Malformed {
        /// The offending line number.
        line: usize,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingHeader => write!(f, "journal is missing its schema-version header"),
            Self::SchemaMismatch { found, expected } => {
                write!(f, "journal schema version {found} (expected {expected})")
            }
            Self::Malformed { line } => write!(f, "malformed journal line {line}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// The JSONL journal's header line (`{"schema_version":N}`).
pub(crate) fn jsonl_header() -> String {
    let mut obj = JsonObject::new();
    obj.field_u64("schema_version", u64::from(JOURNAL_SCHEMA_VERSION));
    obj.finish()
}

/// The CSV journal's header: a `# schema_version=N` comment line, then
/// [`CSV_HEADER`].
pub(crate) fn csv_header() -> String {
    format!("# schema_version={JOURNAL_SCHEMA_VERSION}\n{CSV_HEADER}")
}

/// Parses a journal written by
/// [`journal_jsonl`](crate::TelemetryArtifacts::journal_jsonl) back into
/// its events, verifying the schema-version header first.
///
/// # Errors
///
/// [`JournalError`] for a missing header, a version mismatch, or an
/// unparseable event line.
pub fn parse_jsonl_journal(text: &str) -> Result<Vec<TraceEvent>, JournalError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or(JournalError::MissingHeader)?;
    let fields = parse_object(header).map_err(|_| JournalError::MissingHeader)?;
    let found = get_u64(&fields, "schema_version").ok_or(JournalError::MissingHeader)?;
    let found = u32::try_from(found).map_err(|_| JournalError::MissingHeader)?;
    if found != JOURNAL_SCHEMA_VERSION {
        return Err(JournalError::SchemaMismatch {
            found,
            expected: JOURNAL_SCHEMA_VERSION,
        });
    }
    lines
        .enumerate()
        .map(|(i, line)| {
            TraceEvent::from_json(line).map_err(|_| JournalError::Malformed { line: i + 2 })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::TelemetryArtifacts;
    use nfv_model::RequestId;

    fn event(seq: u64) -> TraceEvent {
        TraceEvent {
            seq,
            time: seq as f64,
            tick: 0,
            kind: EventKind::Admit {
                request: RequestId::new(seq as u32),
                hops: 1,
            },
        }
    }

    fn journal(n: u64) -> TelemetryArtifacts {
        TelemetryArtifacts {
            events: (0..n).map(event).collect(),
            ..TelemetryArtifacts::default()
        }
    }

    #[test]
    fn jsonl_journal_writes_version_header_then_parseable_lines() {
        let text = journal(2).journal_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"schema_version\":1}");
        assert_eq!(TraceEvent::from_json(lines[2]).unwrap(), event(1));
    }

    #[test]
    fn csv_journal_writes_version_and_header_once() {
        let text = journal(2).journal_csv();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "# schema_version=1");
        assert_eq!(lines[1], CSV_HEADER);
        assert!(lines[2].starts_with("Admit,"));
    }

    #[test]
    fn empty_journals_render_empty() {
        assert_eq!(journal(0).journal_jsonl(), "");
        assert_eq!(journal(0).journal_csv(), "");
    }

    #[test]
    fn jsonl_journal_round_trips_through_the_parser() {
        let text = journal(4).journal_jsonl();
        let events = parse_jsonl_journal(&text).unwrap();
        assert_eq!(events, (0..4).map(event).collect::<Vec<_>>());
    }

    #[test]
    fn parser_rejects_missing_headers_and_malformed_lines() {
        assert_eq!(parse_jsonl_journal(""), Err(JournalError::MissingHeader));
        assert_eq!(
            parse_jsonl_journal("{\"other\":1}\n"),
            Err(JournalError::MissingHeader)
        );
        assert_eq!(
            parse_jsonl_journal("{\"schema_version\":1}\nnot json\n"),
            Err(JournalError::Malformed { line: 2 })
        );
    }
}
