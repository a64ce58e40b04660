#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload in its own
# process, so its peak RSS is its own. Run from the repository root:
#   bash pimbench/run.sh --workload mem_solo --seed 1 --seconds 20 --trace 0
# Cargo writes to CARGO_TARGET_DIR when set, else to pimbench/target.
set -euo pipefail
cd "$(dirname "$0")/.."
# The sweep pool takes the machine's width and the memory stage stays
# serial, as they do for a user who sets nothing.
unset PIMSIM_THREADS
cargo build --release --offline --quiet --manifest-path pimbench/Cargo.toml
exec "${CARGO_TARGET_DIR:-pimbench/target}/release/pimbench" "$@"
