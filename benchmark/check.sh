#!/bin/sh
# Lints and tests of the benchmark package, which is a workspace of its own
# and so invisible to the root workspace's CI. Run from anywhere.
set -eu
cd "$(dirname "$0")"
cargo fmt --check
# The release profile throughout: the tiny-input workload tests simulate, and
# the benchmark has to be built with it anyway.
cargo clippy --offline --release --all-targets -- -D warnings
cargo test --offline --release
