#!/usr/bin/env bash
# The benchmark's single entry point: builds the crate (release, offline,
# against the vendored stand-ins), then runs it with the arguments given.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#   benchmark/run.sh [--all] [--runs <n>] [--seed <n>] [--seconds <n>] [--trace <0|1>] [--out <file>]
#   benchmark/run.sh --compare <A.json> <B.json>
#   benchmark/run.sh --check      # fmt + clippy on this crate; root CI does not cover it
#
# Cargo's own output goes to stderr, so the last line of stdout is the result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

if [[ "${1:-}" == "--check" ]]; then
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --manifest-path "$manifest" --offline --all-targets -- -D warnings
    exit 0
fi

cargo build --manifest-path "$manifest" --release --offline --quiet
if [[ $# -eq 0 ]]; then
    set -- --all
fi
exec "${CARGO_TARGET_DIR:-$here/target}/release/sol-benchmark" "$@"
