//! Panic-site budget: every non-test `.unwrap()` / `.expect(` in the
//! controller, fleet and telemetry crates is audited in
//! `ci/panic_allowlist.txt`.
//!
//! For each `.rs` file under `crates/{controller,fleet,telemetry}/src`
//! the test strips `//` comments, stops at the first line starting with
//! `#[cfg(test)]`, and counts the *lines* that still contain `.unwrap()`
//! or `.expect(`. Each count must equal the file's budget in the
//! allowlist (zero when the file is not listed), over or under: a new
//! site is a deliberate, reviewed decision, and a removed site shrinks
//! the budget in the same commit.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const AUDITED: &[&str] = &[
    "crates/controller/src",
    "crates/fleet/src",
    "crates/telemetry/src",
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Lines before the first `#[cfg(test)]` that, with `//` comments
/// stripped, contain a panic site.
fn panic_sites(text: &str) -> usize {
    text.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .map(|line| line.find("//").map_or(line, |comment| &line[..comment]))
        .filter(|code| code.contains(".unwrap()") || code.contains(".expect("))
        .count()
}

/// `<path> <count>` pairs from the allowlist; `#` lines are comments.
fn budgets(text: &str) -> BTreeMap<String, usize> {
    let mut budgets = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (path, count) = line
            .split_once(char::is_whitespace)
            .unwrap_or_else(|| panic!("allowlist line `{line}` is not `<path> <count>`"));
        let count = count
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("allowlist count for {path}: {e}"));
        assert!(
            budgets.insert(path.to_owned(), count).is_none(),
            "{path} is listed twice in the allowlist"
        );
    }
    budgets
}

#[test]
fn panic_sites_match_the_audited_allowlist() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let allowlist = fs::read_to_string(root.join("ci/panic_allowlist.txt"))
        .expect("ci/panic_allowlist.txt is readable");
    let mut budgets = budgets(&allowlist);
    let mut sources = Vec::new();
    for dir in AUDITED {
        rust_sources(&root.join(dir), &mut sources);
    }
    assert!(
        sources.len() > 10,
        "the budget must actually find the audited sources"
    );

    let mut mismatches = Vec::new();
    for path in &sources {
        let relative = path
            .strip_prefix(&root)
            .expect("audited sources live under the workspace root")
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(path).expect("source file is readable");
        let count = panic_sites(&text);
        let allowed = budgets.remove(&relative).unwrap_or(0);
        if count != allowed {
            mismatches.push(format!(
                "{relative} has {count} non-test unwrap/expect sites; the allowlist budgets {allowed}"
            ));
        }
    }
    // An entry for a file that no longer exists is a stale budget.
    mismatches.extend(
        budgets
            .keys()
            .map(|path| format!("{path} is budgeted but is not an audited source")),
    );
    assert!(
        mismatches.is_empty(),
        "panic-site budget mismatch: audit the sites and update ci/panic_allowlist.txt in the \
         same commit\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn the_count_follows_the_audit_rule() {
    let text = "\
let a = x.unwrap(); let b = y.unwrap();
// z.unwrap() in a comment
let c = w.expect(\"reason\"); // trailing .unwrap()
let d = v.unwrap_or(0);
    #[cfg(test)] indented: not a test boundary
let e = u.unwrap();
#[cfg(test)]
let f = t.unwrap();
";
    // Lines, not sites: the first line counts once.
    assert_eq!(panic_sites(text), 3);
}
