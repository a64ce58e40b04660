#!/usr/bin/env bash
# A/B comparison of two checkouts on the repository benchmark (pimbench):
# ROUNDS pairs of runs of each workload at one seed, each side built once
# from its own checkout by its own pimbench/run.sh. Pairs alternate
# which side runs first, so both sides see the same drift in host load.
# Per workload, prints every round's five end-to-end metrics and
# correct/failed for both sides, then per metric each side's median and
# quartiles, the ratio of medians, and in how many rounds the candidate
# was better. Workloads run one after another, each with its own table.
#
# Usage:
#   scripts/pimbench_compare.sh PARENT_DIR CANDIDATE_DIR WORKLOADS [rounds] [seconds] [seed]
#
#   PARENT_DIR / CANDIDATE_DIR  repository checkouts (e.g. a `git clone`
#                               of the parent commit, and this tree)
#   WORKLOADS                   comma-separated list of mem_solo, pim_solo
#                               and coexec_sweep (e.g. mem_solo,pim_solo)
#   rounds                      alternating pairs of runs (default 5)
#   seconds                     --seconds per run (default 10)
#   seed                        workload seed (default 0)
#
# Exits 1 if any run reports a job that is not correct, else 0; the
# judgement on the numbers is the caller's.
set -euo pipefail

if [ $# -lt 3 ]; then
  echo "usage: $0 PARENT_DIR CANDIDATE_DIR WORKLOADS [rounds] [seconds] [seed]" >&2
  exit 2
fi
A_DIR=$1
B_DIR=$2
IFS=',' read -r -a WORKLOAD_LIST <<<"$3"
ROUNDS=${4:-5}
SECONDS_PER_RUN=${5:-10}
SEED=${6:-0}
METRICS=(sim_cycles_per_s job_ms.p50 job_ms.p90 setup_s peak_rss_mb)
# Whether a higher value is better, in METRICS order.
HIGHER_BETTER=(1 0 0 0 0)

for dir in "$A_DIR" "$B_DIR"; do
  if [ ! -f "$dir/pimbench/run.sh" ]; then
    echo "not a checkout with pimbench/run.sh: $dir" >&2
    exit 2
  fi
done
if [ ${#WORKLOAD_LIST[@]} = 0 ]; then
  echo "no workload given" >&2
  exit 2
fi
for w in "${WORKLOAD_LIST[@]}"; do
  case $w in
    mem_solo | pim_solo | coexec_sweep) ;;
    *) echo "unknown workload: $w (mem_solo, pim_solo or coexec_sweep)" >&2; exit 2 ;;
  esac
done
# A shared target directory would make the two checkouts overwrite
# each other's binary; each builds into its own pimbench/target.
unset CARGO_TARGET_DIR

TMPDIR_CMP=$(mktemp -d)
trap 'rm -rf "$TMPDIR_CMP"' EXIT

value_of() { # value_of <json-file> <metric>
  local key=${2//./\\.}
  sed -n "s/.*\"$key\": {\"value\": \([-0-9.eE+]*\).*/\1/p" "$1"
}

quartiles_of() { # quartiles_of <file with one value per line> -> "q1 median q3"
  sort -g "$1" | awk '
    function q(p,   h, lo) { h = 1 + (NR - 1) * p; lo = int(h); return a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
    { a[NR] = $1 }
    END { a[NR + 1] = a[NR]; printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}

run_one() { # run_one <dir> <workload> <out-json>
  bash "$1/pimbench/run.sh" --workload "$2" --seed "$SEED" \
    --seconds "$SECONDS_PER_RUN" --trace 0 | tail -1 >"$3"
}

summary() { # summary <json-file>
  local line
  line=$(sed -n 's/.*"correct": \([a-z]*\), "attempted": \([0-9]*\), "failed": \([0-9]*\).*/correct=\1 failed=\3\/\2/p' "$1")
  for m in "${METRICS[@]}"; do
    line="$line $m=$(value_of "$1" "$m")"
  done
  echo "$line"
}

# Build both sides before the first timed run.
for dir in "$A_DIR" "$B_DIR"; do
  cargo build --release --offline --quiet --manifest-path "$dir/pimbench/Cargo.toml"
done

ALL_CORRECT=1
compare() { # compare <workload>: the interleaved rounds and their table
  local workload=$1 out="$TMPDIR_CMP/$1" i order side dir json m idx
  local a_q1 a_med a_q3 b_q1 b_med b_q3 wins
  mkdir -p "$out"
  echo "workload $workload: $ROUNDS interleaved rounds x ${SECONDS_PER_RUN} s, seed $SEED"
  for i in $(seq 1 "$ROUNDS"); do
    order="a b"
    if [ $((i % 2)) = 0 ]; then order="b a"; fi
    for side in $order; do
      if [ "$side" = a ]; then dir=$A_DIR; else dir=$B_DIR; fi
      json="$out/${side}_$i.json"
      run_one "$dir" "$workload" "$json"
      grep -q '"correct": true' "$json" || ALL_CORRECT=0
      for m in "${METRICS[@]}"; do
        value_of "$json" "$m" >>"$out/${side}_$m"
      done
    done
    echo "round $i"
    echo "  parent   : $(summary "$out/a_$i.json")"
    echo "  candidate: $(summary "$out/b_$i.json")"
  done

  echo
  printf '%-17s %-32s %-32s %8s %s\n' metric "parent median [q1, q3]" \
    "candidate median [q1, q3]" cand/par cand_better
  for idx in "${!METRICS[@]}"; do
    m=${METRICS[$idx]}
    read -r a_q1 a_med a_q3 <<<"$(quartiles_of "$out/a_$m")"
    read -r b_q1 b_med b_q3 <<<"$(quartiles_of "$out/b_$m")"
    wins=$(paste "$out/a_$m" "$out/b_$m" | awk -v hb="${HIGHER_BETTER[$idx]}" '
      { if ((hb && $2 > $1) || (!hb && $2 < $1)) w++ }
      END { printf "%d/%d\n", w, NR }')
    printf '%-17s %-32s %-32s %8s %s\n' "$m" "$a_med [$a_q1, $a_q3]" \
      "$b_med [$b_q1, $b_q3]" "$(awk -v a="$a_med" -v b="$b_med" 'BEGIN { printf "%.3f", a != 0 ? b / a : 0 }')" \
      "$wins"
  done
}

for k in "${!WORKLOAD_LIST[@]}"; do
  if [ "$k" -gt 0 ]; then echo; fi
  compare "${WORKLOAD_LIST[$k]}"
done

if [ "$ALL_CORRECT" = 0 ]; then
  echo "some run reported a job that is not correct" >&2
  exit 1
fi
