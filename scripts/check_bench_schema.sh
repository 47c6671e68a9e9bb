#!/usr/bin/env bash
# Schema check for BENCH_satmap.json: the bench report must carry its
# top-level sections, the telemetry fields of the shared outcome-row
# schema in every route row, and a median for every required benchmark
# group. Run after `cargo bench -p bench`.
set -euo pipefail

report="${1:-BENCH_satmap.json}"

fail() {
    echo "check_bench_schema: $1" >&2
    exit 1
}

[ -s "$report" ] || fail "$report is missing or empty"

# Top-level sections.
for key in schema_version benchmarks groups routes; do
    grep -q "\"$key\"" "$report" || fail "missing top-level key \"$key\""
done

# Telemetry fields of every route row. The arena fields (compactions,
# arena_bytes) came with the flat clause arena; the strategy field with
# the pluggable-strategy MaxSAT engine; the warm-start fields (cache_hit,
# warm_start, reused_clauses) with the route cache; the resilience fields
# (quality, attempts, worker_panics) with the routing supervisor;
# request_id (per-row tracing id) with the routing service; the
# weighted-core fields (strata, exhaustion_steps, hardened_softs) with the
# weight-stratified core-guided search.
for key in compactions arena_bytes strategy cache_hit warm_start reused_clauses \
           quality attempts worker_panics request_id \
           strata exhaustion_steps hardened_softs; do
    grep -q "\"$key\"" "$report" || fail "missing telemetry field \"$key\""
done

# The criterion groups must have produced medians.
for group in '"weighted_core/stratified"' '"weighted_core/plain"' \
             '"weighted_core/linear"' \
             '"warmstart/cold"' '"warmstart/warm"' '"warmstart/cache-hit"'; do
    grep -q "$group" "$report" || fail "missing benchmark $group"
done

echo "check_bench_schema: OK ($report)"
