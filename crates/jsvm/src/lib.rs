//! # wb-jsvm — the MiniJS engine
//!
//! A small but real JavaScript-engine analogue, covering everything the
//! paper's JS-side measurements depend on (§2.2.1):
//!
//! * **Parsing** — lexer + recursive-descent parser for a JS subset
//!   (functions, closures over globals, C-style `for`/`while`, arrays,
//!   objects, typed arrays, strings, the usual operator zoo). Parse time
//!   is charged per source byte: JS pays a load-time cost WebAssembly
//!   doesn't, which drives the paper's small-input results (Table 3).
//! * **Bytecode compilation** — an explicit stack bytecode ([`Op`]), with
//!   per-op compile cost.
//! * **Interpretation + JIT tier model** — bytecode starts in the
//!   interpreter tier (every op ~20× reference cost); hot functions
//!   (invocations + loop back-edges past the engine threshold) tier up to
//!   "optimized" code near reference cost, paying a compile fee. Typed
//!   array element accesses in optimized code run at a separate (better)
//!   multiplier — the asm.js effect (§2.1.1).
//! * **Mark-sweep garbage collection** — real tracing GC over a heap of
//!   arrays/objects/strings, with pause costs and live-byte accounting.
//!   This is the mechanism behind the paper's flat JS memory curves
//!   (Table 4/6): the live set stays small, and typed-array backing stores
//!   are counted as *external* memory exactly as DevTools does.
//!
//! The engine is deterministic: identical scripts yield identical virtual
//! durations and identical reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
pub mod audit;
mod bytecode;
mod compile;
mod error;
mod fuse;
mod heap;
mod lexer;
mod parser;
mod stdlib;
mod value;
mod vm;

pub use bytecode::{Op, Program};
pub use error::JsError;
pub use heap::HeapStats;
pub use value::JsValue;
pub use vm::{JsExecProjection, JsRecord, JsReport, JsVm, JsVmConfig};

/// Parse and compile a script without executing it (exposed for tests,
/// code-size metrics and the harness).
pub fn compile_script(source: &str) -> Result<Program, JsError> {
    let tokens = lexer::lex(source)?;
    let script = parser::parse(tokens)?;
    compile::compile(&script)
}
