//! Determinism audit: no library code may consult wall-clock time or
//! ambient randomness.
//!
//! Every result in this workspace — paper figures, controller reports,
//! property tests — is keyed by explicit seeds and virtual clocks, so two
//! runs with the same inputs must be bit-identical. Wall-clock reads and
//! OS entropy are the two ways that breaks silently. This test walks all
//! library source (`crates/*/src` and the facade's `src/`) and fails on
//! any use of `std::time::Instant::now`, `SystemTime`, or `thread_rng`.
//!
//! Deliberately out of scope: `tests/`, `benches/` and `src/bin/` CLI
//! entry points (timing *around* a deterministic computation is fine —
//! `tests/scale.rs` and `figures profile` do exactly that) and the
//! vendored shims under `vendor/`.
//!
//! One library file is allowlisted. `crates/telemetry/src/span.rs` is
//! the telemetry layer's timing-span module: its wall-clock reads are
//! strictly observational — span durations feed `PhaseProfile` summaries
//! and never flow back into any decision, which the thread-invariance
//! tests pin by asserting bit-identical results with telemetry on and
//! off. Keeping the clock behind this audited seam is the point of the
//! allowlist: anything else that wants the time must go through a
//! `SpanToken`, not read the clock itself.

use std::fs;
use std::path::{Path, PathBuf};

const FORBIDDEN: &[&str] = &["Instant::now", "SystemTime", "thread_rng"];

/// Library files allowed to read the wall clock, with the reason pinned
/// next to the path. Additions here need the same justification: the
/// value must be observational only (never feed back into results).
const ALLOWLISTED: &[&str] = &[
    // Telemetry timing spans: durations are reported, never consulted.
    "crates/telemetry/src/span.rs",
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            // CLI entry points may time around deterministic computations
            // (`figures profile`); everything they call is still audited.
            if path.file_name().is_some_and(|name| name == "bin") {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn library_code_never_reads_wall_clock_or_os_entropy() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&root.join("src"), &mut sources);
    let crates = root.join("crates");
    for entry in fs::read_dir(&crates).expect("crates/ exists") {
        let src = entry.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut sources);
        }
    }
    assert!(
        sources.len() > 10,
        "audit must actually find the workspace sources"
    );

    let mut violations = Vec::new();
    let mut allowlist_hits = vec![false; ALLOWLISTED.len()];
    for path in &sources {
        let relative = path.strip_prefix(&root).unwrap_or(path);
        let allowlisted = ALLOWLISTED
            .iter()
            .position(|allowed| Path::new(allowed) == relative);
        let text = fs::read_to_string(path).expect("source file is readable");
        for (number, line) in text.lines().enumerate() {
            for pattern in FORBIDDEN {
                if line.contains(pattern) {
                    match allowlisted {
                        Some(index) => allowlist_hits[index] = true,
                        None => violations.push(format!(
                            "{}:{}: {}",
                            relative.display(),
                            number + 1,
                            line.trim()
                        )),
                    }
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "wall-clock or entropy use in library code:\n{}",
        violations.join("\n")
    );
    // A stale allowlist is a hole in the audit: every entry must still
    // contain the pattern it exists to excuse.
    for (allowed, hit) in ALLOWLISTED.iter().zip(allowlist_hits) {
        assert!(
            hit,
            "{allowed} is allowlisted but no longer reads the clock; remove the entry"
        );
    }
}
