#!/usr/bin/env sh
# Full local gate, mirroring CI. Network-free by design: the workspace
# has no third-party dependencies, so no step ever touches a registry.
# Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo run --release -p voyager-analyze

# Machine-readable analyzer report: the binary validates the JSON
# against the voyager_obs schema before printing, so a malformed
# report fails here, not downstream.
echo "==> cargo run --release -p voyager-analyze -- --json"
mkdir -p target
cargo run --release -p voyager-analyze -- --json > target/analyze.json
echo "    wrote target/analyze.json"

run cargo build --release
run cargo test -q

# The numeric suite again with the SIMD tiers compiled out: the
# portable scalar tier (the packing driver NEON also runs, here with
# the scalar 8x8 tile; NEON's own 4x8 geometry is not run on x86)
# must stand on its own (CI runs the same job).
run cargo test -q -p voyager-tensor -p voyager-nn -p voyager-runtime \
    --features voyager-tensor/force-scalar
# The whole `voyager` crate again on the scalar tier — the online
# loop's pins, the hierarchical head, the fast path's tape-equality and
# int8 tests: every tier must give the same bits end to end.
run cargo test -q -p voyager --features voyager-tensor/force-scalar
# The layered bench harness, every section at smoke sizes; writes
# target/BENCH_layers.smoke.json and fails on any evaluated gate.
run cargo run --release -p voyager-bench --bin layers -- --smoke

# Observability smoke: the metrics dump must stay schema-valid JSON
# (voyagerctl validates its own output and fails otherwise).
echo "==> cargo run --release -p voyager-bench --bin voyagerctl -- metrics --smoke"
mkdir -p target
cargo run --release -p voyager-bench --bin voyagerctl -- metrics --smoke \
    > target/metrics.smoke.json
echo "    wrote target/metrics.smoke.json"

# The benchmark's own tests (perf/ is a package of its own, outside the
# workspace): the nearest-rank self-test, the tracer tests, same-seed
# determinism on seed 1 and the held-out seed, and the check that every
# printed metric is declared in BENCHMARK.json. Building perf/
# rewrites its lock file, which belongs to the benchmark, so a copy
# is put back afterwards, whether or not the tests pass.
cp perf/Cargo.lock target/perf-Cargo.lock
status=0
run cargo test --manifest-path perf/Cargo.toml || status=$?
cp target/perf-Cargo.lock perf/Cargo.lock
[ "$status" -eq 0 ] || exit "$status"

echo "==> all checks passed"
