#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repository
# root with the given arguments. See benchmark/README.md.
#
#   benchmark/run.sh --workload contended --seed 1 --seconds 12 --trace 0
#   benchmark/run.sh --seed 1 --out benchmark/results/seed1.json
#   benchmark/run.sh compare A.json B.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
# A relative CARGO_TARGET_DIR is taken from the directory run.sh was
# started in; unset, the crate's .cargo/config.toml points at ../target.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

(cd "$root/benchmark" && cargo build --release --offline --quiet) >&2
cd "$root"
exec "$target/release/resex-benchmark" "$@"
