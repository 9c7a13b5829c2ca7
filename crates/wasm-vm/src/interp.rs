//! The call path and hotness state: the one call sequence into the
//! dispatch loop in `exec.rs` (arguments stay in their slots on the
//! instance's value stack, where the callee's frame starts, and the
//! result comes back in the first), host-function crossings (the only
//! calls that convert bits to [`Value`]s, reading the arguments by
//! index), hotness bands, and the numeric helpers (Wasm `min`/`max`,
//! trapping float-to-int truncation) that entries of the operator list
//! in `fuse.rs` name.

use crate::engine::{HostCtx, Instance};
use crate::fuse::{bits_to_value, value_bits};
use crate::trap::Trap;
use crate::value::Value;
use wb_env::Charge;

impl Instance {
    /// Call defined-or-imported function `func_index` with its arguments
    /// on top of `stack`, leaving its result, if any, in the first
    /// argument's slot. A defined function runs in `run_body`, in a frame
    /// over those arguments; an import runs its host function, resolved
    /// at instantiation.
    pub(crate) fn call_function(
        &mut self,
        func_index: u32,
        stack: &mut Vec<u64>,
        depth: usize,
    ) -> Result<(), Trap> {
        if depth >= self.config.limits.max_call_depth {
            return Err(Trap::StackOverflow);
        }
        let import_count = self.prepared.module.imports.len();
        if (func_index as usize) < import_count {
            // The call ends its region: per-op counting would not make it
            // past a budget that region overran.
            if self.steps > self.config.limits.fuel_budget() {
                return Err(Trap::StepBudgetExhausted);
            }
            return self.call_host(func_index, stack);
        }
        let def_index = func_index as usize - import_count;

        // Function-entry hotness and possible tier-up (like a call-count
        // interrupt in V8/SpiderMonkey).
        self.note_hotness(def_index, 1);

        self.run_body(def_index, stack, depth)
    }

    /// Bump a function's hotness; when it reaches the next boundary of
    /// the instance's [`wb_env::Bands`] (held with its band counts), move
    /// the function to the next band and record a [`Charge::BandCrossed`]
    /// marker carrying the function's size. Pricing turns the marker at the tier-up
    /// threshold into the optimizing compile at the moment of tier-up,
    /// as browsers do at runtime, and drops the others.
    ///
    /// Execution reads neither the tier policy nor any threshold: only
    /// the band set, the limits and `reference_exec`, which is all of
    /// [`crate::WasmVmConfig::projection`]. The tier policy, the
    /// threshold and every cost parameter are applied later, by
    /// [`wb_env::price`].
    pub(crate) fn note_hotness(&mut self, def_index: usize, amount: u64) {
        let state = &mut self.func_state[def_index];
        state.hotness += amount;
        while let Some(boundary) = self.band_counts.bands.crossed(state.band, state.hotness) {
            state.band += 1;
            state.row = None;
            let size = self.prepared.module.functions[def_index].body.len() as u64;
            self.charges.push(Charge::BandCrossed { boundary, size });
        }
    }

    /// Call import `import_index` with its arguments on top of `stack`,
    /// read by index, and leave its result in place of them: the one
    /// place inside a run where bits become [`Value`]s and back.
    fn call_host(&mut self, import_index: u32, stack: &mut Vec<u64>) -> Result<(), Trap> {
        let ty = self
            .prepared
            .module
            .func_type(import_index)
            .expect("validated: import type");
        let base = stack.len() - ty.params.len();
        let args: Vec<Value> = ty
            .params
            .iter()
            .zip(&stack[base..])
            .map(|(t, bits)| bits_to_value(*t, *bits))
            .collect();
        // Each host call crosses the boundary twice (out and back).
        self.cross_boundary();
        let slot = self.host_slots[import_index as usize];
        let Some(f) = self.hostfns[slot].as_mut() else {
            let imp = &self.prepared.module.imports[import_index as usize];
            return Err(Trap::MissingImport {
                name: format!("{}.{}", imp.module, imp.field),
            });
        };
        let mut ctx = HostCtx {
            memory: self.memory.as_mut(),
            output: &mut self.output,
        };
        let result = f(&mut ctx, &args);
        self.cross_boundary();
        stack.truncate(base);
        stack.extend(result?.map(value_bits));
        Ok(())
    }
}

/// Wasm `min` of two floats: NaN if either is NaN, and -0 below +0. An
/// f32 operator widens its operands exactly and narrows the result back.
pub(crate) fn wasm_min(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        // min(-0, 0) = -0.
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else {
        a.min(b)
    }
}

/// Wasm `max` of two floats: NaN if either is NaN, and +0 above -0.
pub(crate) fn wasm_max(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        -wasm_min(-a, -b)
    }
}

/// `v` truncated toward zero, if that lies in `[lo, hi)`, else Wasm's
/// trapping conversion fails (NaN lies in no range).
fn trunc_within(v: f64, lo: f64, hi: f64) -> Result<f64, Trap> {
    let t = v.trunc();
    if t >= lo && t < hi {
        Ok(t)
    } else {
        Err(Trap::InvalidConversion)
    }
}

pub(crate) fn trunc_to_i32(v: f64) -> Result<i32, Trap> {
    trunc_within(v, -(2f64.powi(31)), 2f64.powi(31)).map(|t| t as i32)
}

pub(crate) fn trunc_to_u32(v: f64) -> Result<u32, Trap> {
    trunc_within(v, 0.0, 2f64.powi(32)).map(|t| t as u32)
}

pub(crate) fn trunc_to_i64(v: f64) -> Result<i64, Trap> {
    trunc_within(v, -(2f64.powi(63)), 2f64.powi(63)).map(|t| t as i64)
}

pub(crate) fn trunc_to_u64(v: f64) -> Result<u64, Trap> {
    trunc_within(v, 0.0, 2f64.powi(64)).map(|t| t as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_follow_wasm_nan_and_zero_rules() {
        assert!(wasm_min(f64::NAN, 1.0).is_nan());
        assert!(wasm_max(1.0, f64::NAN).is_nan());
        assert!(wasm_min(-0.0, 0.0).is_sign_negative());
        assert!(wasm_max(-0.0, 0.0).is_sign_positive());
        assert_eq!(wasm_min(1.0, 2.0), 1.0);
        assert_eq!(wasm_max(1.0, 2.0), 2.0);
    }

    #[test]
    fn trunc_boundaries() {
        assert_eq!(trunc_to_i32(2147483647.9).unwrap(), 2147483647);
        assert!(trunc_to_i32(2147483648.0).is_err());
        assert_eq!(trunc_to_i32(-2147483648.0).unwrap(), i32::MIN);
        assert!(trunc_to_i32(-2147483649.0).is_err());
        assert!(trunc_to_i32(f64::NAN).is_err());
        assert_eq!(trunc_to_u32(-0.5).unwrap(), 0);
        assert!(trunc_to_u32(-1.0).is_err());
        assert_eq!(trunc_to_u64(1.5).unwrap(), 1);
        assert!(trunc_to_i64(f64::INFINITY).is_err());
    }
}
