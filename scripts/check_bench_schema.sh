#!/usr/bin/env bash
# Schema check for BENCH_satmap.json: the bench report must carry the
# clause-arena / clause-sharing telemetry introduced with the flat arena,
# and the pigeonhole sharing probe must witness actual cooperation
# (nonzero clauses_imported). Run after `cargo bench -p bench`.
set -euo pipefail

report="${1:-BENCH_satmap.json}"

fail() {
    echo "check_bench_schema: $1" >&2
    exit 1
}

[ -s "$report" ] || fail "$report is missing or empty"

# Top-level sections.
for key in schema_version benchmarks groups portfolio_speedup sharing_telemetry routes; do
    grep -q "\"$key\"" "$report" || fail "missing top-level key \"$key\""
done

# Telemetry fields: in the sharing probe and in every route row. The
# strategy field came with the pluggable-strategy MaxSAT engine; the
# warm-start fields (cache_hit, warm_start, reused_clauses) with the route
# cache; the resilience fields (quality, attempts, worker_panics) with the
# routing supervisor; request_id (per-row tracing id) with the routing
# service; the dispatch fields (dispatch_width, dispatch_hardness) with
# the adaptive dispatcher; the weighted-core fields (strata,
# exhaustion_steps, hardened_softs) with the weight-stratified
# core-guided search.
for key in clauses_exported clauses_imported \
           compactions arena_bytes strategy cache_hit warm_start reused_clauses \
           quality attempts worker_panics request_id \
           dispatch_width dispatch_hardness \
           strata exhaustion_steps hardened_softs; do
    grep -q "\"$key\"" "$report" || fail "missing telemetry field \"$key\""
done

# The criterion groups must have produced medians.
for group in '"sharing/on"' '"sharing/off"' '"arena/clone"' '"arena/reemit"' \
             '"maxsat_strategies/linear"' '"maxsat_strategies/core-guided"' \
             '"weighted_core/stratified"' '"weighted_core/plain"' \
             '"weighted_core/linear"' \
             '"warmstart/cold"' '"warmstart/warm"' '"warmstart/cache-hit"' \
             '"dispatch/auto/fig3"' '"dispatch/serial/fig3"' '"dispatch/width4/fig3"' \
             '"dispatch/auto/random12"' '"dispatch/serial/random12"' \
             '"dispatch/width4/random12"'; do
    grep -q "$group" "$report" || fail "missing benchmark $group"
done

# Cooperation witness: the pigeonhole sharing probe must import clauses.
imported=$(sed -n 's/.*"sharing_telemetry": {[^}]*"clauses_imported": \([0-9]*\).*/\1/p' "$report")
[ -n "$imported" ] || fail "could not parse sharing_telemetry.clauses_imported"
[ "$imported" -gt 0 ] || fail "sharing probe imported 0 clauses (portfolio is not cooperating)"

echo "check_bench_schema: OK ($report, clauses_imported=$imported)"
