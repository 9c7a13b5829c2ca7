#!/usr/bin/env bash
# Offline verification: build, test, and smoke the quick grids against
# the committed goldens. No network access required.
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

echo "== core tests (cache and memo identity, pricing) =="
cargo test -q -p wb-core --release

echo "== Wasm VM tests (fused differential, proptests, fusion audit, lifts) =="
cargo test -q -p wb-wasm-vm --release

echo "== JS VM tests (fused differential, proptests, fusion audit) =="
cargo test -q -p wb-jsvm --release

echo "== static analysis (wb analyze) =="
./target/release/wb analyze --all

echo "== fused-vs-reference differential (all kernels at XS, and at L) =="
cargo test -q -p wb-harness --release --test fused_reference_differential

echo "== trap parity (wasm vs js vs native, all levels) =="
cargo test -q -p wb-harness --release --test trap_parity

echo "== fault injection (wb inject) =="
./target/release/wb inject --all

echo "== quick-grid smoke (fig5 + fig12_13, cached and uncached) =="
./target/release/fig5 --quick --out results/quick >/dev/null
./target/release/fig12_13 --quick --stats --out results/quick >/dev/null
# The cache must not change a byte of any emitted table.
./target/release/fig12_13 --quick --no-cache --out results/quick >/dev/null
# Neither may the fused engine: the plain interpreter is the goldens'
# reference semantics.
./target/release/fig5 --quick --reference-exec --out results/quick >/dev/null

echo "== golden stability =="
git diff --exit-code results/

echo "verify: OK"
