#!/usr/bin/env bash
# Builds the release `serve` binary and the benchmark from source, then
# runs the benchmark against that binary. Run from the repository root:
#
#   bash servebench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p nanocost-serve --bin serve >&2
cargo build --release --quiet --offline --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" --serve-bin "$CARGO_TARGET_DIR/release/serve" "$@"
