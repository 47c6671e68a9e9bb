#!/usr/bin/env bash
# Work-count gate: runs one traced perfbench pass of every workload listed
# in scripts/work_counts.txt and fails when any metric whose unit is
# `count` (encoding size, slices, SAT calls, conflicts, decisions,
# propagations, cache traffic) differs from the file. A workload whose
# lines include `routed_2q_gates` (the solver workloads) also gets one
# untraced pass, and the routing quality it reports must match too.
# Timings are not compared. A change that is meant to leave search alone
# must pass this unchanged.
#
#   bash scripts/check_work_counts.sh            # seed 3
#   SEED=7 bash scripts/check_work_counts.sh     # the counts are seed-free
set -euo pipefail

cd "$(dirname "$0")/.."
expected=scripts/work_counts.txt
seed="${SEED:-3}"

cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
bench=perfbench/target/release/perfbench

status=0
for workload in $(awk '!/^#/ && NF { print $1 }' "$expected" | uniq); do
    if ! out=$("$bench" --workload "$workload" --seed "$seed" --seconds 1 --trace 1); then
        echo "check_work_counts: perfbench failed on $workload" >&2
        printf '%s\n' "$out" | grep '^# ERROR' >&2 || true
        status=1
        continue
    fi
    # Metric lines read `# <name> <value> <unit>`.
    actual=$(printf '%s\n' "$out" |
        awk -v w="$workload" '$1 == "#" && NF == 4 && $4 == "count" { printf "%s %s %d\n", w, $2, $3 }')
    want=$(awk -v w="$workload" '$1 == w' "$expected")
    if printf '%s\n' "$want" | grep -q ' routed_2q_gates '; then
        if ! out=$("$bench" --workload "$workload" --seed "$seed" --seconds 1 --trace 0); then
            echo "check_work_counts: untraced perfbench failed on $workload" >&2
            status=1
            continue
        fi
        # The last line is the run's JSON summary.
        gates=$(printf '%s\n' "$out" | tail -n 1 |
            sed -n 's/.*"routed_2q_gates": {"value": \([0-9]*\),.*/\1/p')
        actual=$(printf '%s\n%s routed_2q_gates %s' "$actual" "$workload" "$gates")
    fi
    if [ "$actual" = "$want" ]; then
        echo "check_work_counts: $workload ok ($(printf '%s\n' "$want" | wc -l) counts)"
    else
        echo "check_work_counts: $workload differs (- expected, + measured):" >&2
        diff <(printf '%s\n' "$want") <(printf '%s\n' "$actual") >&2 || true
        status=1
    fi
done
exit "$status"
