#!/usr/bin/env bash
# Builds the benchmark and runs its smoke test: every workload at --smoke
# size, untraced and traced, checked against BENCHMARK.json. It gates
# correctness and output schema only, never a timing. Not wired into
# .github/workflows/ci.yml yet; a later change can call this script.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
cargo test --release --offline -q
