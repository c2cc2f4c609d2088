#!/usr/bin/env bash
# Lints and tests the benchmark crate. It is a workspace of its own, so the
# repository's `--workspace` commands do not reach it. Tests run in release
# because they drive real (1/50-size) simulations.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
cargo test --offline --release
