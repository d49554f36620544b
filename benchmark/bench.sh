#!/usr/bin/env bash
# The benchmark's one command: build the harness offline, then hand over to
# its front-end (see README.md here for the modes).
#
#   bash benchmark/bench.sh                       every workload, both passes
#   bash benchmark/bench.sh --workload pubs-ours --seed 42 --seconds 20 --trace 0
#   bash benchmark/bench.sh compare A.json B.json
set -euo pipefail

# Reports, spans and temporary files go to benchmark/out under the
# repository root, wherever the script is called from.
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/bench" "$@"
