#!/usr/bin/env bash
# Tier-1 gate: formatting, release build (examples included), full test
# suite, and lint-clean clippy.
# Run from the repository root. Fails fast on the first broken step.
# Pass --slow to also run the #[ignore]d long-horizon experiment tests
# (release mode; adds a few minutes).
set -euo pipefail
cd "$(dirname "$0")/.."

SLOW=0
for arg in "$@"; do
  case "$arg" in
    --slow) SLOW=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cargo fmt --all --check
cargo build --release --workspace
cargo build --examples --workspace
cargo test -q --workspace
cargo clippy --all-targets --workspace -- -D warnings

# Determinism contract of sweep-grain parallelism (DESIGN.md §4f): the
# golden fixtures and the sweep-equivalence slice must hold at both a
# serial and a multi-threaded pool width. The golden_pipeline binary is
# the per-backend golden pass: it checks the HBM matrix against
# tests/fixtures/golden_pipeline.json (byte-identical across the
# multi-backend refactor) AND the LP5X matrix against
# tests/fixtures/golden_lp5x.json (DESIGN.md §4j). The issue_oracle
# binary races the event-driven issue stage against always-poll kernels
# over the same matrix plus restart- and credit-driven wake cases
# (DESIGN.md §4m). The memory_oracle binary races the event-driven
# memory stage against every partition stepped every cycle (DESIGN.md
# §4o); it also runs in the debug pass above, where a late wake trips
# the catch-up assertion.
PIMSIM_THREADS=1 cargo test -q --release --test golden_pipeline --test parallel_equivalence \
  --test issue_oracle --test memory_oracle
PIMSIM_THREADS=4 cargo test -q --release --test golden_pipeline --test parallel_equivalence \
  --test issue_oracle --test memory_oracle

# Backend-registry smoke (DESIGN.md §4j): both registries must round-trip
# names and agree on the error dialect, every registered backend must be
# reachable from the CLI, and a short LP5X run must complete end to end —
# the whole chain spec string → registry → SystemConfig → simulator.
cargo test -q --release --test backend_registry
# grep without -q: -q exits at the first match and closes the pipe,
# which can panic the CLI mid-print with EPIPE depending on buffering.
cargo run -q --release -p pimsim-cli --bin pimsim -- list | grep "lp5x" >/dev/null
cargo run -q --release -p pimsim-cli --bin pimsim -- \
  standalone --pim P1 --dram lp5x:ranks=4 --scale 0.01 >/dev/null

# Hot-loop smoke (DESIGN.md §4g): one rep of every scenario, with a
# throughput floor an order of magnitude below the slowest recorded rate
# in BENCH_hotloop.json — it trips on asymptotic regressions (a per-tick
# scan creeping back into the busy path), not machine noise. The smoke
# writes no JSON so the committed best-of-3 numbers are preserved.
# The hotloop binary itself also fails the smoke if burst retirement
# disengages (zero burst hit rate on standalone_pim), if fast-forward
# stops skipping (fewer skipped cycles on standalone_mem than the
# committed count minus slack; wall clock only has to stay at 0.85x
# parity, DESIGN.md §4p), or if event-driven completion delivery
# disengages: on standalone_pim the reply-net + completion stages must
# run at least 5x fewer ticks than the eager 2-ticks-per-stepped-cycle
# baseline (DESIGN.md §4i), or if retire-time completion batching
# disengages: on both standalone PIM scenarios (HBM and lp5x:ranks=4)
# at least one ack must travel in a retire-time batch (DESIGN.md §4k),
# or if event-driven issue disengages: kernel polls per stepped cycle on
# standalone_mem and coexec_f3fs must stay under bounds the committed
# BENCH_hotloop.json values clear by at least 2x (DESIGN.md §4m), or if
# the event-driven memory stage disengages: partition visits per
# stepped cycle on standalone_mem and standalone_pim must stay under
# bounds below the eager 32 (DESIGN.md §4o), or if the MEM candidate
# cache stops sparing unchanged banks: MEM-queue entries read per full
# controller step on standalone_mem and coexec_f3fs must stay under
# bounds below a full rescan (DESIGN.md §4p). Tick, poll, visit, skip and
# entry counts are deterministic, so those gates are structural — immune
# to host noise.
HOTLOOP_REPS=1 HOTLOOP_FLOOR=25000 HOTLOOP_OUT="" \
  cargo run -q --release -p pimsim-bench --bin hotloop

# Guard for the repository benchmark (pimbench/, its own workspace that
# builds against the simulator crates by path): its unit tests must pass,
# and one short seed-0 pass of each workload must report every job
# correct against pimbench/expected/. An API break or an outcome drift
# that would sink the benchmark fails here first.
cargo test -q --offline --manifest-path pimbench/Cargo.toml
for workload in mem_solo pim_solo coexec_sweep; do
  bash pimbench/run.sh --workload "$workload" --seed 0 --seconds 1 --trace 0 \
    | tail -1 | grep '"correct": true' >/dev/null
done

# Opt-in slow pass: the two #[ignore]d long-horizon experiment tests
# (full QKV collaborative run, PIM-corunner interference sweep). They
# validate paper-level conclusions rather than mechanisms, so they ride
# outside the default gate.
if [ "$SLOW" = 1 ]; then
  cargo test -q --release -p pimsim-sim -- --ignored
fi
