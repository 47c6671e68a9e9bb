#!/usr/bin/env bash
# Line count of the Rust sources under crates/: `wc -l` over every
# crates/<crate>/**/*.rs per crate, the total, and the total without blank
# lines. Informational only; it never fails a build.
#
#   bash scripts/crate_lines.sh
set -euo pipefail

cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    lines=$(find "$dir" -name '*.rs' -not -path '*/target/*' -print0 | xargs -0 cat | wc -l)
    printf '%-12s %7d\n' "$crate" "$lines"
    total=$((total + lines))
done
nonblank=$(find crates -name '*.rs' -not -path '*/target/*' -print0 | xargs -0 cat | grep -cv '^[[:space:]]*$')
printf '%-12s %7d\n' total "$total"
printf '%-12s %7d\n' non-blank "$nonblank"
