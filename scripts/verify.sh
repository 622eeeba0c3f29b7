#!/usr/bin/env bash
# Tier-1 verification gate for the Rijndael IP workspace.
#
# Everything runs --locked --offline: the workspace has zero registry
# dependencies (see "Hermetic build policy" in README.md / DESIGN.md), so
# a clean checkout must format-check, lint, build and test with no
# network access and no lockfile drift.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets --locked --offline -- -D warnings

echo "==> cargo doc (rustdoc warnings, broken intra-doc links included, are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked --offline

echo "==> cargo build --release"
cargo build --release --locked --offline

echo "==> cargo test"
cargo test -q --workspace --locked --offline

echo "==> telemetry spine tests"
cargo test -q -p rijndael-telemetry --locked --offline

echo "==> engine subsystem tests"
cargo test -q -p rijndael-engine --locked --offline
cargo test -q --test engine_equivalence --locked --offline

echo "==> worker-pool concurrency stress (resize + hot-swap under load)"
cargo test -q -p rijndael-engine --test engine_concurrency --locked --offline

echo "==> bitsliced backend cross-check"
cargo test -q --test bitslice_equivalence --locked --offline

echo "==> runtime dispatch gate (forced-backend sweep)"
# The force override is read once per process, so each backend gets a
# fresh process: the full equivalence sweep under the pin, every engine
# mode on every farm shape (the Auto slots resolve to the pin), the
# worker-pool stress (its Auto-built workers must keep every invariant
# when they all resolve to the pin), the AEAD KATs, the seeded wire
# laws (every answer over a live connection checked against the
# reference; the two-key law shares one farm between a 16-byte and a
# 32-byte session, so under ip-core it covers the IP model for 16-byte
# keys and soft-fallback for 32-byte ones), then a live server round
# trip asserting GET_STATS reports the pinned name. Only targeted test binaries run here — the whole suite includes
# tests that legitimately assume an unpinned dispatch. json_check, the
# workspace's own JSON reader, checks every document the benches below
# write.
cargo build -q --release --locked --offline -p rijndael-bench \
    --bin dispatch_probe --bin json_check
backends="$(target/release/dispatch_probe --list)"
[ -n "$backends" ] || { echo "dispatch_probe --list printed no backends" >&2; exit 1; }
for backend in $backends; do
    echo "    --> RIJNDAEL_FORCE_BACKEND=$backend"
    RIJNDAEL_FORCE_BACKEND="$backend" \
        cargo test -q --test bitslice_equivalence --locked --offline
    RIJNDAEL_FORCE_BACKEND="$backend" \
        cargo test -q --test engine_equivalence --locked --offline
    RIJNDAEL_FORCE_BACKEND="$backend" \
        cargo test -q -p rijndael-engine --test engine_concurrency --locked --offline
    RIJNDAEL_FORCE_BACKEND="$backend" \
        cargo test -q --test aead_kats --locked --offline
    RIJNDAEL_FORCE_BACKEND="$backend" \
        cargo test -q --test service_wire_law --locked --offline
    RIJNDAEL_FORCE_BACKEND="$backend" \
        target/release/dispatch_probe --check
done
echo "    --> unknown tokens must fail loudly"
if RIJNDAEL_FORCE_BACKEND=not-a-real-backend target/release/dispatch_probe --check \
    >/dev/null 2>&1; then
    echo "an unknown RIJNDAEL_FORCE_BACKEND token was silently accepted" >&2
    exit 1
fi

echo "==> dispatch force-override end-to-end test"
cargo test -q --test dispatch_force --locked --offline

echo "==> service subsystem tests (incl. GET_STATS round trip)"
cargo test -q -p rijndael-service --locked --offline
cargo test -q --test service_roundtrip --locked --offline

echo "==> service pipelining tests (out-of-order completions + blocking beside pipelining)"
cargo test -q --test service_pipeline --locked --offline

echo "==> AEAD subsystem gate (NIST GCM / RFC 3394 / IEEE XTS KATs + XTS oracle law + service flow)"
cargo test -q --test aead_kats --locked --offline

echo "==> service load generator (smoke; 10k-connection hold + GET_STATS audit)"
load_out="$(mktemp)"
TESTKIT_BENCH_SMOKE=1 \
    cargo run -q --release --locked --offline -p rijndael-bench --bin service_load \
    | tee "$load_out"
grep -q "holding 10000 concurrent connections" "$load_out" \
    || { echo "service_load did not hold 10k connections" >&2; exit 1; }
grep -E -q "burst p50 +[0-9.]+.{0,2}s p99 +[0-9.]+.{0,2}s" "$load_out" \
    || { echo "service_load did not report burst p50/p99" >&2; exit 1; }
grep -E -q "dispatch p50 [0-9]+ us, p99 [0-9]+ us" "$load_out" \
    || { echo "service_load did not report event-loop p50/p99" >&2; exit 1; }
grep -E -q "server socket calls per request: [0-9]+\.[0-9]+" "$load_out" \
    || { echo "service_load did not report server socket calls per request" >&2; exit 1; }
rm -f "$load_out"

echo "==> cluster subsystem tests (ring, router, drain migration, node loss)"
cargo test -q -p rijndael-cluster --locked --offline

echo "==> cluster load gate (smoke: >=2.5x paced 1->3 nodes, drain zero-loss, fleet audit)"
cluster_json="$(mktemp)"
trap 'rm -f "$cluster_json"' EXIT
BENCH_CLUSTER_JSON="$cluster_json" \
    cargo run -q --release --locked --offline -p rijndael-bench --bin cluster_load -- --smoke
target/release/json_check "$cluster_json" \
    || { echo "cluster_load JSON is malformed" >&2; exit 1; }

echo "==> elastic scaling gate (smoke: >=2x paced 1->4 workers, resize step, autoscaled service)"
elastic_json="$(mktemp)"
trap 'rm -f "$cluster_json" "$elastic_json"' EXIT
BENCH_ELASTIC_JSON="$elastic_json" \
    cargo run -q --release --locked --offline -p rijndael-bench --bin elastic_scaling -- --smoke
target/release/json_check "$elastic_json" \
    || { echo "elastic_scaling JSON is malformed" >&2; exit 1; }

echo "==> engine scaling report (smoke, backend race JSON)"
bench_json="$(mktemp)"
race_json="$(mktemp)"
trap 'rm -f "$cluster_json" "$elastic_json" "$bench_json" "$race_json"' EXIT
BENCH_BITSLICE_JSON="$race_json" \
    cargo run -q --release --locked --offline -p rijndael-bench --bin engine_scaling -- --smoke
target/release/json_check "$race_json" \
    || { echo "engine_scaling backend-race JSON is malformed" >&2; exit 1; }

echo "==> AEAD throughput report (smoke: GCM-vs-CTR and XTS-vs-ECB overhead gates + GHASH race)"
gcm_json="$(mktemp)"
trap 'rm -f "$cluster_json" "$elastic_json" "$bench_json" "$race_json" "$gcm_json"' EXIT
TESTKIT_BENCH_SMOKE=1 BENCH_GCM_JSON="$gcm_json" \
    cargo run -q --release --locked --offline -p rijndael-bench --bin aead_throughput
target/release/json_check "$gcm_json" \
    || { echo "aead_throughput JSON is malformed" >&2; exit 1; }

echo "==> engine bench (smoke, JSON well-formedness)"
TESTKIT_BENCH_SMOKE=1 TESTKIT_BENCH_JSON="$bench_json" \
    cargo bench -q --locked --offline -p rijndael-bench --bench engine >/dev/null
target/release/json_check "$bench_json" \
    || { echo "engine bench JSON is malformed" >&2; exit 1; }

echo "==> bitslice bench (smoke: no-alloc hot loops + JSON well-formedness)"
TESTKIT_BENCH_SMOKE=1 TESTKIT_BENCH_JSON="$bench_json" \
    cargo bench -q --locked --offline -p rijndael-bench --bench bitslice >/dev/null
target/release/json_check "$bench_json" \
    || { echo "bitslice bench JSON is malformed" >&2; exit 1; }

echo "==> perf_ledger tests (the benchmark's own smoke and unit tests)"
# perf_ledger is a package of its own outside the workspace, and its
# Cargo.lock is gitignored, so this one step runs without --locked.
cargo test --release --offline -q --manifest-path perf_ledger/Cargo.toml

echo "==> OK: hermetic verify passed"
