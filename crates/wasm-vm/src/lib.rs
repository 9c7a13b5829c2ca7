//! # wb-wasm-vm — a tiered WebAssembly interpreter with virtual-time accounting
//!
//! Executes modules from `wb-wasm` with full MVP semantics (traps, two's
//! complement arithmetic, IEEE floats, bounds-checked linear memory) while
//! counting every retired instruction per hotness band in the shared
//! taxonomy from `wb-env` (by counting region entries and folding each
//! region's counts in when the record is read) and recording every
//! discrete event (load,
//! compile, band crossing, grow, crossing) unpriced; `wb_env::price`
//! turns that [`ExecutionRecord`] into virtual time, choosing the tiers
//! as it goes. The priced run mirrors the two-tier structure of the
//! browser engines in the paper (§4.4):
//!
//! * at instantiation every function is compiled by the **baseline** tier
//!   (cheap compile, slower code — "Liftoff"/"Baseline");
//! * functions whose hotness (calls + loop back-edges) crosses the
//!   engine's threshold **tier up** to the optimizing compiler at runtime
//!   ("TurboFan"/"Ion"), paying a compile cost proportional to their size;
//! * [`TierPolicy`](wb_env::TierPolicy) selects the Table 11 flag
//!   configurations: default, basic-only (`--liftoff --no-wasm-tier-up`)
//!   and optimizing-only (`--no-liftoff --no-wasm-tier-up`).
//!
//! Host (JavaScript) functions are reachable through imports; every
//! crossing charges the engine's JS↔Wasm context-switch cost, which the
//! §4.5 microbenchmark measures directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod classify;
mod engine;
mod exec;
mod fuse;
mod interp;
mod prep;
mod trap;
mod value;

pub use classify::{arith_kind, classify, ArithKind};
pub use engine::{
    ExecutionRecord, ExecutionReport, HostCtx, HostFn, Instance, MemoryStats, WasmExecProjection,
    WasmVmConfig,
};
pub use prep::PreparedModule;
pub use trap::Trap;
pub use value::Value;
