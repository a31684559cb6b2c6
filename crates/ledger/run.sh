#!/usr/bin/env bash
# Builds the ledger from source (release profile of the workspace) and
# runs it; every argument is passed through. With no arguments all seven
# workloads run untraced and then traced. See README.md beside this file.
set -euo pipefail
cd "$(dirname "$0")/../.."
exec cargo run --release --quiet --manifest-path crates/ledger/Cargo.toml --bin ledger -- "$@"
