#!/usr/bin/env bash
# Builds the query server (`ecrpq-serve`) and the benchmark from source, then
# runs the benchmark against the freshly built server. Run from the root of
# the repository:
#
#   bash perfbench/run.sh --workload point_reads --seed 1 --seconds 10 --trace 0
#
# Cargo's output goes to stderr; the benchmark's report goes to stdout and
# ends with one JSON line.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --target-dir "$target" --manifest-path Cargo.toml \
    -p ecrpq-server --bin ecrpq-serve >&2
cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --server "$target/release/ecrpq-serve" "$@"
