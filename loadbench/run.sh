#!/usr/bin/env bash
# Build lightor-serve, lightor-router and the load driver from this
# checkout, then run the driver with the given arguments:
#
#   bash loadbench/run.sh --workload <dots_read|ingest_mixed|first_sight> \
#        --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the driver's last stdout line is the
# result JSON. Binaries land in $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates/server ]]; then
    echo "loadbench: not a full checkout (Cargo.toml or crates/server missing)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p lightor_server \
    --bin lightor-serve --bin lightor-router 1>&2
cargo build --release --offline --quiet --manifest-path loadbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/loadbench" "$@"
