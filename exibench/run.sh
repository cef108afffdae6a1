#!/usr/bin/env bash
# Builds the daemon, the CLI and the benchmark from source, then runs the
# benchmark with the caller's arguments. All build output lands in
# $CARGO_TARGET_DIR (default: target/ under the checkout root).
#
#   bash exibench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash exibench/run.sh test     # the package's tests, serve_burst smoke included
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p exi-serve -p exi-cli
if [ "${1:-}" = test ]; then
    # The release profile puts the test executable next to the daemon and
    # the CLI the serve_burst smoke test drives.
    exec cargo test --release --offline --quiet --manifest-path "$here/Cargo.toml"
fi
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$target/release/exibench" "$@"
