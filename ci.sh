#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full test suite.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, all targets, deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (facade + workspace; includes the determinism audit and the panic-site budget) =="
cargo test -q
cargo test -q --workspace

echo "== thread-count invariance (experiment results at 1/2/8 threads) =="
cargo test -q -p nfv-core --test thread_invariance

echo "== node-failure domains (total-loss, overlap, stale accounting, outage interleavings) =="
cargo test -q -p nfv-controller --test node_failure
cargo test -q -p nfv-controller --test properties outage_interleavings

echo "== queueing formula guards (rho >= 1 stays an error, never a number) =="
cargo test -q -p nfv-queueing rho_

echo "== ledger equivalence (incremental balanced-W bit-identical to the from-scratch oracle) =="
cargo test -q -p nfv-controller --test properties interleaved_mutations_undo_to_identity
cargo test -q -p nfv-controller cached_balanced_latency

echo "== replay engine (streamed == materialized trace, batched path preserves decisions) =="
cargo test -q -p nfv-workload stream
cargo test -q -p nfv-core --lib replay

echo "== anytime search (GA/PSO determinism, repair, refiner hand-off) =="
cargo test -q -p nfv-search
cargo test -q -p nfv-controller refiner
cargo test -q -p nfv-core --lib anytime
cargo test -q -p nfv-core --test thread_invariance search

echo "== retry timer wheel (pop order bit-identical to the BTreeMap oracle) =="
cargo test -q -p nfv-controller wheel

echo "== fleet (sharded tenants: conservation, two-phase handoff, merged journals) =="
cargo test -q -p nfv-fleet
cargo test -q -p nfv-core --lib fleet
cargo test -q -p nfv-core --test thread_invariance fleet

echo "== chaos harness (seeded fault plans, checkpoint/restore, byte-identical recovery) =="
cargo test -q -p nfv-chaos
cargo test -q -p nfv-controller --test snapshot_roundtrip
cargo test -q -p nfv-fleet --test chaos_recovery
cargo test -q -p nfv-core --lib chaos
cargo test -q -p nfv-core --test thread_invariance chaos

echo "== observability plane (span trees, registry byte-identity, flight recorder) =="
cargo test -q -p nfv-fleet --test observability
cargo test -q -p nfv-core --test thread_invariance observability

echo "== cargo build --release =="
cargo build --release

echo "== anytime figure (searchers must reach the greedy placers and the exact oracle) =="
cargo run -q --release -p nfv-bench --bin figures -- anytime --reps 2

echo "== churn figure (joint re-placement must beat scheduling-only when saturated) =="
cargo run -q --release -p nfv-bench --bin figures -- churn

echo "== resilience figure (emergency re-placement + retries must beat tick-only recovery) =="
cargo run -q --release -p nfv-bench --bin figures -- resilience

echo "== chaos figure (every recovered run byte-identical to the undisturbed baseline) =="
cargo run -q --release -p nfv-bench --bin figures -- chaos

echo "== telemetry layer (strict observer, journal round-trip, merge order) =="
cargo test -q -p nfv-telemetry
cargo test -q -p nfv-controller telemetry
cargo test -q -p nfv-core --test thread_invariance telemetry

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
