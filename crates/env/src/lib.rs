//! # wb-env — execution environments and the virtual-time cost model
//!
//! The paper measures WebAssembly and JavaScript inside six real browser
//! environments (Chrome/Firefox/Edge × desktop/mobile). This crate is the
//! simulation substrate that replaces those environments: it defines
//!
//! * [`VirtualClock`] — deterministic virtual time in nanoseconds, advanced
//!   by instruction-category counts multiplied by calibrated costs;
//! * [`OpClass`] / [`OpCounts`] / [`CostTable`] — the shared instruction
//!   taxonomy both virtual machines (`wb-wasm-vm`, `wb-jsvm`) charge against;
//! * [`Browser`], [`Platform`], [`Environment`] — the six deployment settings
//!   of §4.5, each resolving to an [`EnvProfile`] of engine parameters;
//! * [`WasmEngineProfile`] / [`JsEngineProfile`] — tiering, JIT, GC and
//!   memory-accounting parameters per engine;
//! * [`CompilerProfile`] — Cheerp vs Emscripten toolchain differences
//!   (§4.2.2): initial linear memory, growth granularity, codegen efficiency;
//! * [`ChargeRecord`] / [`BandCounts`] / [`price`] — the unpriced record
//!   of a run's discrete events and its retired operations per hotness
//!   band, and the one function that prices it under a [`Tiering`];
//! * [`calibration`] — every tuned constant, in one audited module.
//!
//! All numbers produced on top of this crate are **deterministic**: the same
//! program in the same environment always yields the same virtual duration,
//! so the paper's tables regenerate bit-identically across machines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bands;
pub mod calibration;
mod compiler;
mod cost;
mod engine;
mod environment;
mod limits;
mod price;
mod regions;
pub mod rng;
mod time;

pub use bands::{BandCounts, Bands, Tiering};
pub use compiler::{CompilerProfile, JsTarget, Toolchain};
pub use cost::{ArithCounts, ArithKind, CostTable, OpClass, OpCounts, OP_CLASS_COUNT};
pub use engine::{GcParams, JitMode, JsEngineProfile, TierParams, TierPolicy, WasmEngineProfile};
pub use environment::{Browser, EnvProfile, Environment, Platform};
pub use limits::{ResourceLimits, DEFAULT_MAX_CALL_DEPTH};
pub use price::{price, Charge, ChargeRecord, EnginePrices, PriceList, Priced};
pub use regions::{RegionCounters, RegionHits, RegionTable};
pub use time::{Nanos, TimeBucket, VirtualClock};
