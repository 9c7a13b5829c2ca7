//! The call path and hotness state: the one call sequence into the
//! dispatch loop in `exec.rs` (arguments stay on the instance's value
//! stack, where the callee's frame starts), host-function crossings (the
//! only calls that convert bits to [`Value`]s), hotness bands, and the
//! numeric helpers (Wasm `min`/`max`, trapping float-to-int truncation)
//! behind the lifted operators in `fuse.rs`.

use crate::engine::{HostCtx, Instance};
use crate::fuse::{bits_to_value, value_bits};
use crate::trap::Trap;
use crate::value::Value;
use wb_env::Charge;

impl Instance {
    /// Call defined-or-imported function `func_index` with its arguments
    /// on top of `stack`, leaving its result, if any, in their place. A
    /// defined function runs in `run_body`, in a frame over those
    /// arguments; an import runs its host function, resolved at
    /// instantiation.
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

    /// Call import `import_index` with its arguments on top of `stack`:
    /// the one place inside a run where bits become [`Value`]s and back.
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
            .zip(stack.drain(base..))
            .map(|(t, bits)| bits_to_value(*t, bits))
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
        stack.extend(result?.map(value_bits));
        Ok(())
    }
}

pub(crate) fn wasm_min_f32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        // min(-0, 0) = -0.
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else if a < b {
        a
    } else {
        b
    }
}

pub(crate) fn wasm_max_f32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else if a > b {
        a
    } else {
        b
    }
}

pub(crate) fn wasm_min_f64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else if a < b {
        a
    } else {
        b
    }
}

pub(crate) fn wasm_max_f64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else if a > b {
        a
    } else {
        b
    }
}

pub(crate) fn trunc_to_i32(v: f64) -> Result<i32, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    let t = v.trunc();
    if t >= -(2f64.powi(31)) && t < 2f64.powi(31) {
        Ok(t as i32)
    } else {
        Err(Trap::InvalidConversion)
    }
}

pub(crate) fn trunc_to_u32(v: f64) -> Result<u32, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    let t = v.trunc();
    if t > -1.0 && t < 2f64.powi(32) {
        Ok(t as u32)
    } else {
        Err(Trap::InvalidConversion)
    }
}

pub(crate) fn trunc_to_i64(v: f64) -> Result<i64, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    let t = v.trunc();
    if t >= -(2f64.powi(63)) && t < 2f64.powi(63) {
        Ok(t as i64)
    } else {
        Err(Trap::InvalidConversion)
    }
}

pub(crate) fn trunc_to_u64(v: f64) -> Result<u64, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    let t = v.trunc();
    if t > -1.0 && t < 2f64.powi(64) {
        Ok(t as u64)
    } else {
        Err(Trap::InvalidConversion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_follow_wasm_nan_and_zero_rules() {
        assert!(wasm_min_f64(f64::NAN, 1.0).is_nan());
        assert!(wasm_max_f32(1.0, f32::NAN).is_nan());
        assert!(wasm_min_f64(-0.0, 0.0).is_sign_negative());
        assert!(wasm_max_f64(-0.0, 0.0).is_sign_positive());
        assert_eq!(wasm_min_f64(1.0, 2.0), 1.0);
        assert_eq!(wasm_max_f32(1.0, 2.0), 2.0);
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
