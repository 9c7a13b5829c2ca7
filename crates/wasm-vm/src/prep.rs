//! Module preparation: everything about a module the interpreter would
//! otherwise recompute per run or — worse — per step, done **once**: the
//! validator's verdict, which every instance checks before it runs
//! anything, and the lowered micro-op streams, filled lazily per
//! function, once with fusion on and once with it off
//! (`reference_exec`). Lowering a function asks
//! the validator for the operand height before each of its instructions
//! and their peak ([`wb_wasm::operand_heights`]), which place every
//! operand in a frame slot and every branch target's carried value
//! (`fuse.rs` `lower`), so execution keeps no control state and no
//! operand stack of its own.
//!
//! A `PreparedModule` is immutable plain data (`Send + Sync`), so one
//! preparation can be shared across instances — and across threads via
//! `Arc`, which is how the artifact cache reuses decode/validate/prepare
//! work between grid cells.

use crate::fuse::{lower, LoweredFunc};
use std::sync::OnceLock;
use wb_wasm::{Module, ValidationError};

/// A module plus its lowered functions.
#[derive(Debug)]
pub struct PreparedModule {
    /// The underlying module.
    pub module: Module,
    /// Whether the module validates, decided once at preparation: an
    /// instance of a module that does not fails to instantiate.
    pub(crate) validation: Result<(), ValidationError>,
    /// Micro-op streams, indexed by whether fusion is on: each function
    /// is lowered lazily on its first execution under that setting and
    /// then shared across instances (and threads, via
    /// `Arc<PreparedModule>` in the artifact cache) for the lifetime of
    /// the preparation.
    lowered: [Vec<OnceLock<LoweredFunc>>; 2],
}

impl PreparedModule {
    /// Prepare a module, validating it once.
    pub fn new(module: Module) -> Self {
        let validation = wb_wasm::validate(&module);
        let lowered = [(); 2].map(|_| {
            (0..module.functions.len())
                .map(|_| OnceLock::new())
                .collect()
        });
        PreparedModule {
            module,
            validation,
            lowered,
        }
    }

    /// The micro-op stream for defined function `def_index`, fused or
    /// one op per instruction, lowering it on first use. Lowering is pure
    /// derived data (no virtual-time charge): both settings charge the
    /// same compile costs, and fusion itself models no engine work.
    pub(crate) fn lowered(&self, def_index: usize, fuse: bool) -> &LoweredFunc {
        self.lowered[usize::from(fuse)][def_index].get_or_init(|| {
            let heights = wb_wasm::operand_heights(&self.module, def_index)
                .expect("an instance runs only a module that validates");
            lower(
                &self.module.functions[def_index],
                &self.module,
                &heights,
                fuse,
            )
        })
    }
}
