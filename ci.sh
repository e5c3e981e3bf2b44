#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full test suite.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, all targets, deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (workspace, deny warnings: no broken or private intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Each test target runs once, here: the determinism audit, the panic-site
# budget, thread invariance at 1/2/8 threads, the byte-identity goldens
# (results/golden/ and the results/ exports), node failure, the ledger and
# retry-wheel oracles, the replay engine, anytime search, the fleet, chaos
# recovery, observability and telemetry all live in these two runs.
echo "== cargo test (facade + workspace) =="
cargo test -q
cargo test -q --workspace

echo "== cargo build --release =="
cargo build --release

echo "== perfbench self-tests (smoke runs of every workload against the crates' public API) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== anytime figure (searchers must reach the greedy placers and the exact oracle) =="
cargo run -q --release -p nfv-bench --bin figures -- anytime --reps 2

echo "== churn figure (joint re-placement must beat scheduling-only when saturated) =="
cargo run -q --release -p nfv-bench --bin figures -- churn

echo "== resilience figure (emergency re-placement + retries must beat tick-only recovery) =="
cargo run -q --release -p nfv-bench --bin figures -- resilience

echo "== chaos figure (every recovered run byte-identical to the undisturbed baseline) =="
cargo run -q --release -p nfv-bench --bin figures -- chaos

echo "== telemetry exposure (JSONL journal + outage episode + hot-phase profile + 5% observability budget) =="
cargo run -q --release -p nfv-bench --bin figures -- trace --csv results
test -s results/trace_resilience.jsonl
test -s results/trace_series.csv
cargo run -q --release -p nfv-bench --bin figures -- profile
cargo run -q --release -p nfv-bench --bin figures -- obs --csv results
test -s results/registry.txt
test -s results/registry.prom
test -s results/registry.json

echo "ci: all green"
