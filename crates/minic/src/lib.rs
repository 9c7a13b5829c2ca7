//! # wb-minic — the MiniC compiler
//!
//! A real multi-stage optimizing compiler for a pointer-free C subset,
//! standing in for Cheerp/Emscripten in the study (§2.1, §3):
//!
//! ```text
//!        #define-substituting preprocessor          (§3.2 input sizes)
//!   C source ──lex/parse──► AST
//!        source transformer: try/catch → error flags,
//!        union → bit-reinterpret intrinsics          (§3.1, Fig 3)
//!   AST ──sema/typecheck──► typed HIR
//!        optimization pipelines per -O level         (§2.1.2, Fig 1)
//!   HIR ──backends──► Wasm binary | MiniJS source | native-sim program
//! ```
//!
//! The optimization passes are genuine IR transforms whose target-dependent
//! interactions reproduce the paper's §4.2 findings mechanically:
//!
//! * `-vectorize-loops` (O2/O3/Ofast) marks eligible loops 4-wide. The
//!   **native** backend executes them with real 4-lane cost savings; the
//!   SIMD-less **Wasm/JS** MVP targets must strip-mine them back to
//!   scalar code with a trip-count guard and per-iteration lane
//!   bookkeeping — which is why `-Oz` (no
//!   vectorization) produces the *fastest* Wasm, the paper's headline
//!   counter-intuitive result.
//! * constant **rematerialization** (O2+) leaves small integral float
//!   constants inline, which the Wasm backend encodes as
//!   `i32.const; f64.convert_i32_s` (two stack ops) — exactly the Fig 8
//!   Covariance pattern; `-O1`'s hoisting pass converts once into a local.
//! * dead-global-store elimination runs at every level, except that
//!   `-Ofast` on the Wasm target skips it — **bug emulation** of the
//!   LLVM#37449-style miscompile the paper traces in Fig 7 (ADPCM).
//! * `-Ofast` fast-math only helps the native backend (Wasm has no
//!   relaxed-math instructions to emit).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod backend;
mod compiler;
mod error;
pub mod hir;
mod layout;
mod lexer;
mod opt;
mod parser;
pub mod passes;
mod preprocess;
mod sema;
pub mod transform;
pub mod verify;

pub use compiler::{CompileOutput, Compiler, FrontEnd, JsOutput, WasmOutput};
pub use error::CompileError;
pub use lexer::lex;
pub use opt::OptLevel;
pub use parser::parse;
pub use preprocess::preprocess;
pub use sema::analyze;
