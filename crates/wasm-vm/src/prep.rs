//! Module preparation: everything about a module the interpreter would
//! otherwise recompute per run or — worse — per step, done **once**:
//!
//! * flat side tables mapping each structured-control opener to its
//!   matching `else`/`end`, from which lowering pre-translates every
//!   branch target to a micro-op index;
//! * per-function call signatures (arg count, result arity), so `call`
//!   dispatch never clones a `FuncType`;
//! * the lowered micro-op streams, filled lazily per function, once with
//!   fusion on and once with it off (`reference_exec`).
//!
//! A `PreparedModule` is immutable plain data (`Send + Sync`), so one
//! preparation can be shared across instances — and across threads via
//! `Arc`, which is how the artifact cache reuses decode/validate/prepare
//! work between grid cells.

use crate::fuse::{lower, LoweredFunc};
use std::sync::OnceLock;
use wb_wasm::{Instr, Module};

/// Sentinel for "no matching pc" in the flat side tables.
pub const NO_PC: u32 = u32::MAX;

/// Per-function control side table, indexed directly by pc.
#[derive(Debug, Clone, Default)]
pub struct SideTable {
    /// For each `block`/`loop`/`if` pc: pc of the matching `end`
    /// ([`NO_PC`] at every other pc).
    pub end_of: Vec<u32>,
    /// For each `if` pc that has an `else`: pc of that `else`
    /// ([`NO_PC`] otherwise).
    pub else_of: Vec<u32>,
}

/// A module plus its precomputed side tables and dispatch metadata.
#[derive(Debug)]
pub struct PreparedModule {
    /// The underlying module.
    pub module: Module,
    /// One side table per defined function, same order as
    /// `module.functions`.
    pub side_tables: Vec<SideTable>,
    /// `(nargs, has_result)` per function index (imports first, then
    /// defined functions) — the only pieces of the callee signature the
    /// call sequence needs.
    pub call_sigs: Vec<(u16, bool)>,
    /// Micro-op streams, indexed by whether fusion is on: each function
    /// is lowered lazily on its first execution under that setting and
    /// then shared across instances (and threads, via
    /// `Arc<PreparedModule>` in the artifact cache) for the lifetime of
    /// the preparation.
    lowered: [Vec<OnceLock<LoweredFunc>>; 2],
}

impl PreparedModule {
    /// Prepare a (validated) module.
    pub fn new(module: Module) -> Self {
        let side_tables = module
            .functions
            .iter()
            .map(|f| build_side_table(&f.body))
            .collect();
        let nfuncs = module.imports.len() + module.functions.len();
        let call_sigs = (0..nfuncs as u32)
            .map(|i| match module.func_type(i) {
                Some(ty) => (ty.params.len() as u16, !ty.results.is_empty()),
                None => (0, false),
            })
            .collect();
        let lowered = [(); 2].map(|_| {
            (0..module.functions.len())
                .map(|_| OnceLock::new())
                .collect()
        });
        PreparedModule {
            module,
            side_tables,
            call_sigs,
            lowered,
        }
    }

    /// The micro-op stream for defined function `def_index`, fused or
    /// one op per instruction, lowering it on first use. Lowering is pure
    /// derived data (no virtual-time charge): both settings charge the
    /// same compile costs, and fusion itself models no engine work.
    pub(crate) fn lowered(&self, def_index: usize, fuse: bool) -> &LoweredFunc {
        self.lowered[usize::from(fuse)][def_index].get_or_init(|| {
            lower(
                &self.module.functions[def_index].body,
                &self.side_tables[def_index],
                &self.module,
                fuse,
            )
        })
    }
}

fn build_side_table(body: &[Instr]) -> SideTable {
    let mut table = SideTable {
        end_of: vec![NO_PC; body.len()],
        else_of: vec![NO_PC; body.len()],
    };
    let mut stack: Vec<usize> = Vec::new();
    for (pc, instr) in body.iter().enumerate() {
        match instr {
            Instr::Block(_) | Instr::Loop(_) | Instr::If(_) => stack.push(pc),
            Instr::Else => {
                if let Some(&opener) = stack.last() {
                    table.else_of[opener] = pc as u32;
                }
            }
            Instr::End => {
                // The final `end` closes the implicit function frame, for
                // which the stack is empty.
                if let Some(opener) = stack.pop() {
                    table.end_of[opener] = pc as u32;
                }
            }
            _ => {}
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_wasm::BlockType;

    #[test]
    fn matches_nested_blocks() {
        // block (0) { loop (1) { if (2) {} else {} end(5) } end(6) } end(7) end-of-func(8)
        let body = vec![
            Instr::Block(BlockType::Empty), // 0
            Instr::Loop(BlockType::Empty),  // 1
            Instr::If(BlockType::Empty),    // 2  (consumes a condition in real code)
            Instr::Nop,                     // 3
            Instr::Else,                    // 4
            Instr::Nop,                     // 5
            Instr::End,                     // 6 closes if
            Instr::End,                     // 7 closes loop
            Instr::End,                     // 8 closes block
            Instr::End,                     // 9 closes function
        ];
        let t = build_side_table(&body);
        assert_eq!(t.end_of[2], 6);
        assert_eq!(t.end_of[1], 7);
        assert_eq!(t.end_of[0], 8);
        assert_eq!(t.else_of[2], 4);
        assert_eq!(t.end_of[9], NO_PC);
        assert_eq!(t.else_of[0], NO_PC);
    }

    #[test]
    fn else_binds_to_innermost_if() {
        let body = vec![
            Instr::If(BlockType::Empty), // 0
            Instr::If(BlockType::Empty), // 1
            Instr::Else,                 // 2 -> if@1
            Instr::End,                  // 3
            Instr::Else,                 // 4 -> if@0
            Instr::End,                  // 5
            Instr::End,                  // 6
        ];
        let t = build_side_table(&body);
        assert_eq!(t.else_of[1], 2);
        assert_eq!(t.else_of[0], 4);
        assert_eq!(t.end_of[1], 3);
        assert_eq!(t.end_of[0], 5);
    }
}
