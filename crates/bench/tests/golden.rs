//! Byte-identity as a test: every `figures` command prints exactly its
//! committed seed-42 golden at one and at two worker threads, and
//! `trace --csv` / `obs --csv` write exactly the committed `results/`
//! exports. The command list comes from the usage line, so a new command
//! without a golden fails here. `profile` prints wall-clock timings and
//! `all` repeats the others, so neither has a golden.
//!
//! A change that alters an output on purpose regenerates it and says
//! which golden changed and why:
//!
//! ```text
//! figures <command> --reps 2 --seed 42 > results/golden/<command>.txt
//! figures trace --csv results && figures obs --csv results
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The files `trace --csv` and `obs --csv` write.
const EXPORTS: [&str; 6] = [
    "registry.json",
    "registry.prom",
    "registry.txt",
    "trace_resilience.csv",
    "trace_resilience.jsonl",
    "trace_series.csv",
];

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Runs `figures` with `args`; returns (exited successfully, stdout,
/// stderr).
fn figures(args: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("figures prints UTF-8");
    (
        output.status.success(),
        text(output.stdout),
        text(output.stderr),
    )
}

/// `name: first difference at line N` when `actual` is not `expected`.
fn difference(name: &str, expected: &str, actual: &str) -> Option<String> {
    let same = expected.lines().zip(actual.lines());
    let line = same.take_while(|(a, b)| a == b).count() + 1;
    (expected != actual).then(|| format!("{name}: first difference at line {line}"))
}

fn assert_goldens_at(threads: &str) {
    let (_, _, usage) = figures(&[]);
    let list = usage
        .split_once("usage: figures <")
        .and_then(|(_, rest)| rest.split_once('>'))
        .map(|(list, _)| list.to_owned())
        .expect("figures without arguments prints the usage line");
    let commands: Vec<&str> = list
        .split('|')
        .filter(|command| !["profile", "all"].contains(command))
        .collect();
    assert!(commands.len() > 20, "usage line lists too few: {list}");
    let mut mismatches = Vec::new();
    for command in commands {
        let name = format!("golden/{command}.txt");
        let golden = fs::read_to_string(results_dir().join(&name)).unwrap_or_default();
        let args = [command, "--reps", "2", "--seed", "42", "--threads", threads];
        let (ok, stdout, stderr) = figures(&args);
        assert!(ok, "`figures {}` failed: {stderr}", args.join(" "));
        mismatches.extend(difference(&name, &golden, &stdout));
    }
    assert!(
        mismatches.is_empty(),
        "output at --threads {threads} differs from its golden:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn every_command_prints_its_golden_at_one_thread() {
    assert_goldens_at("1");
}

#[test]
fn every_command_prints_its_golden_at_two_threads() {
    assert_goldens_at("2");
}

#[test]
fn csv_exports_match_the_committed_results() {
    let dir = std::env::temp_dir().join(format!("nfv-golden-exports-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("temp dir is UTF-8");
    for command in ["trace", "obs"] {
        let (ok, _, stderr) = figures(&[command, "--seed", "42", "--csv", dir_arg]);
        assert!(ok, "`figures {command} --csv` failed: {stderr}");
    }
    let read = |path: PathBuf| fs::read_to_string(path).unwrap_or_default();
    let mismatches: Vec<String> = EXPORTS
        .iter()
        .filter_map(|name| difference(name, &read(results_dir().join(name)), &read(dir.join(name))))
        .collect();
    let _ = fs::remove_dir_all(&dir);
    assert!(
        mismatches.is_empty(),
        "exports differ from results/:\n{}",
        mismatches.join("\n")
    );
}
