#!/usr/bin/env bash
# Prints the non-test Rust line count of the workspace: every `.rs`
# file under crates/, src/ and examples/, skipping `tests/` directories,
# with each file cut at its first `#[cfg(test)]` line (in-file unit
# tests sit at the end of their module by convention).
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find crates src examples -name '*.rs' -not -path '*/tests/*' -print0 \
    | sort -z \
    | xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }' \
    | awk '{ total += $1 } END { print total + 0 }'
