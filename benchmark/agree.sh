#!/usr/bin/env bash
# Repeatability: the untraced suite twice, every metric x workload pair
# with both values and the relative gap; non-zero exit if a gap exceeds
# the metric's bound, an op failed, or an exact count differs between two
# short traced passes. Arguments (--seed n, --seconds s) pass through.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- agree "$@"
