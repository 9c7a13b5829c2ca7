//! # wb-wasm — WebAssembly module model, binary codec, validator and memory
//!
//! This crate implements the WebAssembly MVP surface the study needs,
//! faithfully to the spec's binary format:
//!
//! * [`Module`] — the in-memory module model: types, imports, functions,
//!   tables, memories, globals, exports, elements, data segments;
//! * [`Instr`] — the instruction set (full MVP numeric/memory/control
//!   subset; no SIMD — the paper's §4.2.1 vectorization finding depends on
//!   precisely this absence);
//! * [`encode_module`] / [`decode_module`] — binary encoder and decoder
//!   (LEB128, section framing, spec opcode assignments);
//! * [`validate`] — stack-discipline type checking of function bodies,
//!   and [`operand_heights`], the operand height before each instruction
//!   of a body and its peak, as that checking tracks them;
//! * [`print_wat`] — a WAT-style text rendering (like Fig 4(c));
//! * [`LinearMemory`] — 64 KiB-paged linear memory with `memory.grow`
//!   semantics and high-water-mark accounting;
//! * [`ModuleBuilder`] / [`FuncBuilder`] — ergonomic construction API used
//!   by the MiniC backend and by hand-written modules (e.g. the Long.js
//!   analogue).
//!
//! The binary encoder and decoder round-trip: property tests in this crate
//! generate arbitrary modules and assert `decode(encode(m)) == m`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod decode;
mod encode;
mod error;
mod instr;
pub mod leb128;
mod memory;
mod module;
mod text;
mod types;
mod validate;

pub use builder::{FuncBuilder, ModuleBuilder};
pub use decode::decode_module;
pub use encode::encode_module;
pub use error::{DecodeError, ValidationError};
pub use instr::{BlockType, Instr, MemArg};
pub use memory::{LinearMemory, MemoryError, PAGE_SIZE};
pub use module::{
    Data, Element, Export, ExportKind, FuncImport, Function, Global, MemorySpec, Module, TableSpec,
};
pub use text::print_wat;
pub use types::{FuncType, GlobalType, Limits, ValType};
pub use validate::{operand_heights, validate, OperandHeights};
