#!/usr/bin/env bash
# Repo gate: formatting, lints, build, full test suite.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q

echo "==> benchmark unit tests (perfbench)"
# The benchmark is a package of its own, outside the workspace, so the
# workspace test run above skips its unit tests (printed_metrics_are_declared
# and the statistics, span and workload checks).
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# One second of a benchmark workload, traced and untraced. perfbench exits
# 1 when the two runs' modeled metrics differ, and its final JSON line
# counts the operations that failed their check against the CPU reference.
perfbench_smoke() {
  local smoke result failed
  smoke=$(cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$1" --seed 1 --seconds 1 --trace 1)
  result=$(printf '%s\n' "$smoke" | tail -n 1)
  failed=$(printf '%s\n' "$result" | sed -n 's/^{.*"failed": \([0-9]*\),.*/\1/p')
  if [ "$failed" != 0 ]; then
    printf '%s\n' "$smoke" | grep -v '^{' >&2
    echo "$1 smoke: \"failed\" is '${failed}', not 0" >&2
    exit 1
  fi
}

echo "==> benchmark smoke (perfbench paper-sweep, traced and untraced)"
perfbench_smoke paper-sweep

echo "==> benchmark smoke (perfbench serve-churn, traced and untraced)"
# Plan-cache churn: every miss is planned by the oracle heuristic on the
# worker pool and refined by the trial sweep, so the planner path gets an
# end-to-end check against the CPU reference.
perfbench_smoke serve-churn

echo "==> benchmark smoke (perfbench serve-zoo, traced and untraced)"
# Warm fleet and whole-model serving with golden checks. A non-zero exit
# means the traced run's modeled metrics differ from the untraced run's.
# Its wrong-shape failures are the fleet serving strided and dilated
# endpoints through the unit-axes path (ROADMAP item 1); they stay visible
# in the summary printed here until that fix lands. Every other failure
# class must be zero.
zoo=$(cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
  --workload serve-zoo --seed 1 --seconds 1 --trace 1)
zoo_summary=$(printf '%s\n' "$zoo" | grep '^attempted ' | tail -n 1 || true)
echo "serve-zoo: ${zoo_summary}"
for want in 'wrong values 0,' 'errors 0,' 'shed 0)'; do
  case "$zoo_summary" in
    *"$want"*) ;;
    *)
      echo "serve-zoo smoke: summary does not report '${want%[,)]}'" >&2
      exit 1
      ;;
  esac
done

echo "==> hazard-analysis gate (ablation --analyze --gate)"
cargo run --release -q -p memconv-bench --bin ablation -- --analyze --gate

echo "==> fault-injection gate (faults --smoke --gate)"
cargo run --release -q -p memconv-bench --bin faults -- --smoke --gate

echo "==> serving gate (serve --smoke --gate)"
# Includes the cold-start gate: a fresh server answers every miss from the
# instant oracle-heuristic path, bit-identical to the batched run.
cargo run --release -q -p memconv-bench --bin serve -- --smoke --gate

echo "==> fleet resilience gate (fleet --smoke --gate)"
# Chaos campaign over the sharded fleet: zero silent corruptions, replays
# bit-identical across launch engines and worker counts, baseline
# deadline-miss rate and load imbalance under the declared thresholds.
cargo run --release -q -p memconv-bench --bin fleet -- --smoke --gate

echo "==> layer-graph gate (graph --smoke --gate)"
# Whole-model schedules: fused device-resident, pooled-unfused and
# layer-at-a-time outputs bit-identical on every zoo network, with the
# fused schedule's transaction reduction over the declared floor.
cargo run --release -q -p memconv-bench --bin graph -- --smoke --gate

echo "==> geometry-axes gate (geom --smoke --gate)"
# New-axes transaction study: zero divergences against the CPU reference
# over the extended zoo (grouped/depthwise/dilated/strided), and the
# dedicated depthwise kernel's transactions strictly below the
# dense-equivalent block's.
cargo run --release -q -p memconv-bench --bin geom -- --smoke --gate

# Oracle exactness gate: predicted transaction signatures bit-equal to
# measured runs over the whole zoo x registry, zero unexpected
# data-dependent sites, shuffle-dynamic positive control flagged — on
# both launch engines.
echo "==> oracle prediction gate (predict --gate, both engines)"
cargo run --release -q -p memconv-bench --bin predict -- --gate --json
cargo run --release -q -p memconv-bench --bin predict -- --gate --mode parallel

echo "==> observability gate (profile --smoke --gate)"
cargo run --release -q -p memconv-bench --bin profile -- --smoke --gate

# Parallel-engine throughput gate: every fig3 panel under both engines;
# enforces parallel >= sequential blocks/sec on hosts with >= 4 hardware
# threads, and prints a skip reason (without failing) on smaller hosts.
echo "==> launch-engine ratio gate (fig3 --mode both --json --gate)"
cargo run --release -q -p memconv-bench --bin fig3 -- \
  --mode both --json --gate --filter 3 --max-size 1024

echo "CI gate passed."
