//! # wb-bench — wall-clock benchmarks (std-only)
//!
//! Simulator hot paths (`benches/simulator.rs`): wall-clock performance
//! of the substrates themselves — Wasm decode/validate/interpret, MiniJS
//! parse/compile/run, MiniC compilation, GC. A plain `harness = false`
//! program driven by the small [`timing`] module (no external bench
//! framework, so the workspace builds offline). The wall time of the
//! whole study is what `wb regen` reports per entry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timing;
