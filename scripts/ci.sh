#!/usr/bin/env bash
# CI gate: everything a PR must pass. Run locally before pushing.
#
# The build is fully offline — third-party deps are vendored under
# crates/*-compat as [workspace.dependencies] path entries — so this
# script needs no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

# Every `cargo test` step runs under a time bound, so a launch that
# hangs fails CI with the step's name instead of stalling it. A full
# workspace test run takes a few minutes; the bound is far above that.
test_step() {
  local name=$1
  shift
  local status=0
  timeout 60m "$@" || status=$?
  if [ "$status" -eq 124 ]; then
    echo "CI step '$name' timed out after 60m"
  fi
  return "$status"
}

echo "==> cargo test -q (slot-count parallel gate, the default)"
# Includes bench's trace_export test, which parses the `trace mcscan`
# export and requires its phase and stall names as traceEvents names.
test_step "cargo test (parallel gate)" cargo test -q --workspace

echo "==> cargo test -q (stride-1 serial gate via ASCEND_SCHED)"
# The same suite must pass at both strides of the scheduler gate;
# sched_equiv additionally proves their reports byte-identical.
# sync::tests::env_policy_follows_ascend_sched pins that this run
# really resolves to SchedPolicy::Serial (one block at a time).
ASCEND_SCHED=serial test_step "cargo test (serial gate)" cargo test -q --workspace

echo "==> examples: each asserts its own results end to end"
for example in quickstart sorting llm_sampling multi_sampling tensor_masking; do
  cargo run --release --example "$example" > /dev/null
done

echo "==> top-k smoke: the head of the sort against torch.topk at 910B4 scale"
# The tests run top-k on the 910B4 preset up to 60K elements; this drives
# it through the figure harness at 256K elements, k = 64 and 4096.
cargo run --release -p bench --bin figures -- topk --quick > /dev/null

echo "==> ablation smoke: StridedTotals, SSA and RSS at 910B4 scale"
# Only one unit test runs StridedTotals, SSA and RSS at s = 128; this
# drives all four MCScan strategies through the figure harness on the
# 910B4 preset (64K and 1M int8 elements).
cargo run --release -p bench --bin figures -- ablation --quick > /dev/null

echo "==> perf report smoke: figures --json"
# figures refuses to write a document that fails
# bench::validate_bench_json, which requires every stable schema key.
cargo run --release -p bench --bin figures -- --json --quick
test -s BENCH_scan.json

echo "==> perf gate: decoupled ScanC must not trail MCScan at the 4M anchor"
# The tentpole claim: with the multi-hop look-back overlapped behind
# local work, ScanC wins on TIME (it always won on bytes) by the 4M
# crossover anchor, for both dtype paths, and removing the look-back
# entirely may predict at most a 1.15x speedup (it is hidden, not
# merely cheap).
cargo run --release -p bench --bin benchcheck -- BENCH_scan.json

# The host section carries wall-clock times, the one legitimately
# run-dependent part of the document; every byte-stability comparison
# below blanks it first.
strip_host() { sed -E 's/"host":\{[^{}]*\}/"host":{}/' "$1"; }

echo "==> determinism gate: two figure runs must be byte-identical"
# The deterministic scheduler makes launches seed-independent; any
# drift between two back-to-back runs is a scheduler regression.
mv BENCH_scan.json BENCH_scan.first.json
cargo run --release -p bench --bin figures -- --json --quick
cmp <(strip_host BENCH_scan.first.json) <(strip_host BENCH_scan.json) \
  || { echo "BENCH_scan.json is not byte-stable across runs"; exit 1; }
rm -f BENCH_scan.first.json

echo "==> host-parallelism gate: --jobs 1 and --jobs $(nproc) must agree byte-for-byte"
# Simulated results may never depend on how many host threads ran the
# figure points; only the host section's wall-clock times may move.
mv BENCH_scan.json BENCH_scan.wide.json
cargo run --release -p bench --bin figures -- --json --quick --jobs 1
cmp <(strip_host BENCH_scan.json) <(strip_host BENCH_scan.wide.json) \
  || { echo "BENCH_scan.json differs between --jobs 1 and --jobs $(nproc)"; exit 1; }
rm -f BENCH_scan.wide.json

echo "==> oversubscribed smoke: grids larger than the host"
test_step "oversubscribed launch" \
  cargo test -q -p ascendc oversubscribed_launch_is_deterministic
test_step "oversubscribed ScanC" \
  cargo test -q --test determinism oversubscribed_scanc_is_reproducible_byte_for_byte

echo "==> simlint + critpath gates: every shipped kernel's schedule must be clean"
# One trace file per kernel (concatenated launches would look
# concurrent to the analyzer). The traces live in a temp dir that is
# removed even when a gate fails, so a red run leaves no litter in the
# repo root.
lintdir=$(mktemp -d)
trap 'rm -rf "$lintdir"' EXIT
# One `trace` invocation traces all kernels concurrently (--jobs) and
# writes one file per kernel (--dir); the per-kernel JSON is
# byte-identical to what nine serial single-kernel runs would write.
# `sort` is the one-launch fp16 radix sort `Device::top_p` runs (8
# two-bit passes, 17 barriers).
cargo run --release -p bench --bin trace -- all 65536 --jobs "$(nproc)" --dir "$lintdir"
lint_traces=()
for k in scanu scanul1 mcscan scanc scanc-excl cumsum batched split sort; do
  test -s "$lintdir/$k.json" || { echo "trace --dir did not write $k.json"; exit 1; }
  lint_traces+=("$lintdir/$k.json")
done
# simlint exits nonzero on ANY diagnostic — races and sync gaps, but
# also leak/balance warnings; --json keeps a machine-readable record.
cargo run --release -p bench --bin simlint -- --json "${lint_traces[@]}" \
  > "$lintdir/simlint.json" \
  || { cat "$lintdir/simlint.json"; echo "simlint found schedule diagnostics"; exit 1; }
# critpath re-checks the makespan identity and what-if invariants on the
# serialized critical paths of the same traces.
cargo run --release -p bench --bin critpath -- --top 3 "${lint_traces[@]}" \
  || { echo "critpath found a critical-path invariant violation"; exit 1; }

echo "==> mcheck gate: exhaustive schedule-space check of every shipped kernel"
# The model checker explores every inequivalent interleaving of
# sync-visible operations on the tiny chip, proving deadlock-freedom,
# hb-cleanliness, and byte-identical reports across all commit orders.
# It prints explored/pruned state counts and exits 1 on any finding or
# budget exceedance. ScanC, MCScan, the split and the one-launch sort
# must additionally reach 100% dual (blocked AND non-blocking) wait
# coverage.
cargo run --release -p bench --bin mcheck -- all \
  || { echo "mcheck found a schedule-space violation"; exit 1; }
cargo run --release -p bench --bin mcheck -- --strict-coverage mcscan scanc scanc-mh split sort \
  || { echo "mcheck: mcscan/scanc/split/sort missed full sync coverage"; exit 1; }

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
# Every intra-doc link must resolve: a broken, ambiguous or private
# link in the public docs fails the build.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "CI green."
