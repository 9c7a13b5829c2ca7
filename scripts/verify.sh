#!/usr/bin/env bash
# Offline verification: build, test, regenerate every artifact and diff
# it against the committed goldens. No network access required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --check

echo "== clippy =="
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== clippy panic-freedom gate (VM + codec libraries) =="
# The decoder and both VMs must surface faults as structured errors,
# never panics (tests are exempt: --lib skips #[cfg(test)] code).
cargo clippy -p wb-wasm -p wb-wasm-vm -p wb-jsvm --lib -q -- \
  -D warnings -D clippy::panic -D clippy::unwrap_used

echo "== build =="
cargo build --release --workspace

echo "== tests =="
cargo test -q

echo "== workspace tests, release (every crate; the every-kernel-at-L differential is release-only) =="
cargo test --workspace --release -q

echo "== benchmark tests (perfbench builds against the public APIs of every crate) =="
# perfbench is a workspace of its own, so the workspace tests above do
# not build it: a change to an API it reads (JsVm, Instance,
# ArtifactCache, GridEngine, ...) fails here, not in the benchmark run.
cargo test --release -q --offline --manifest-path perfbench/Cargo.toml

echo "== static analysis (wb analyze) =="
./target/release/wb analyze --all

echo "== fault injection (wb inject) =="
./target/release/wb inject --all

echo "== full regeneration (every golden CSV and TXT in results/) =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
./target/release/wb regen --stats --out "$tmp/full"
diff -r -x quick "$tmp/full" results

echo "== quick grid, uncached, with fusion off and on one worker =="
# Neither the cache, nor fusion, nor the worker schedule may change a
# byte of any emitted table. `--no-cache` builds every artifact from its
# own front end, so it also compares memoized front ends (one checked HIR
# cloned into each level x target compile) against fresh ones;
# `--reference-exec` lowers every function one op per instruction that
# does work, so this compares fusion on against fusion off in each VM's
# one loop; and
# `--jobs 1` runs every cell in grid order.
./target/release/wb regen fig5 fig12_13 --quick --no-cache --out "$tmp/no-cache"
./target/release/wb regen fig5 fig12_13 --quick --reference-exec --out "$tmp/reference"
./target/release/wb regen fig5 fig12_13 --quick --jobs 1 --out "$tmp/serial"
for f in results/quick/*; do
  cmp "$f" "$tmp/no-cache/${f##*/}"
  cmp "$f" "$tmp/reference/${f##*/}"
  cmp "$f" "$tmp/serial/${f##*/}"
done

echo "== golden stability =="
git diff --exit-code results/

echo "verify: OK"
