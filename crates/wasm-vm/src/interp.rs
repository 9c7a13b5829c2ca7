//! The execution core: a flat-body interpreter with precomputed branch
//! targets, full MVP semantics, per-instruction cost accounting and
//! hotness-driven tier-up.

use crate::classify::ArithKind;
use crate::engine::{HostCtx, Instance, Tier};
use crate::prep::NO_PC;
use crate::trap::Trap;
use crate::value::Value;
use std::sync::Arc;
use wb_env::{Charge, TierPolicy};
use wb_wasm::{Instr, MemArg};

struct Ctrl {
    opener_pc: usize,
    end_pc: usize,
    height: usize,
    arity: usize,
    is_loop: bool,
}

impl Instance {
    /// Execute defined-or-imported function `func_index` with `args`,
    /// dispatching to the fused engine (default) or the reference
    /// interpreter (`--reference-exec` escape hatch). Both charge the
    /// same virtual-cost sequence; see `exec.rs`.
    pub(crate) fn call_function(
        &mut self,
        func_index: u32,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<Option<Value>, Trap> {
        if depth >= self.config.limits.max_call_depth {
            return Err(Trap::StackOverflow);
        }
        let import_count = self.prepared.module.imports.len();
        if (func_index as usize) < import_count {
            return self.call_host(func_index, &args);
        }
        let def_index = func_index as usize - import_count;

        // Function-entry hotness and possible tier-up (like a call-count
        // interrupt in V8/SpiderMonkey).
        self.note_hotness(def_index, 1);

        if self.config.reference_exec {
            self.run_body_reference(def_index, args, depth)
        } else {
            self.run_body_fused(def_index, args, depth)
        }
    }

    /// Charge one Table 12 arithmetic operation of kind `kind`.
    #[inline]
    pub(crate) fn bump_arith(&mut self, kind: ArithKind) {
        self.arith.bump(kind);
    }

    /// The reference execution core: one [`Instr`] per step over a tagged
    /// [`Value`] stack. This is the semantic baseline the fused engine is
    /// differentially tested against.
    pub(crate) fn run_body_reference(
        &mut self,
        def_index: usize,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<Option<Value>, Trap> {
        let prepared = Arc::clone(&self.prepared);
        let func = &prepared.module.functions[def_index];
        let side = &prepared.side_tables[def_index];
        let ty = &prepared.module.types[func.type_index as usize];
        let result_arity = ty.results.len();

        let mut locals = args;
        locals.extend(func.locals.iter().map(|t| Value::zero(*t)));

        let mut stack: Vec<Value> = Vec::with_capacity(16);
        let mut ctrl: Vec<Ctrl> = Vec::with_capacity(8);
        let body = &func.body;
        let mut pc = 0usize;
        let mut tier = self.func_state[def_index].tier;

        macro_rules! pop {
            () => {
                stack.pop().expect("validated: operand present")
            };
        }
        macro_rules! bin_i32 {
            ($f:expr) => {{
                let b = pop!().as_i32();
                let a = pop!().as_i32();
                stack.push(Value::I32($f(a, b)));
            }};
        }
        macro_rules! bin_i64 {
            ($f:expr) => {{
                let b = pop!().as_i64();
                let a = pop!().as_i64();
                stack.push(Value::I64($f(a, b)));
            }};
        }
        macro_rules! cmp_i32 {
            ($f:expr) => {{
                let b = pop!().as_i32();
                let a = pop!().as_i32();
                stack.push(Value::I32($f(a, b) as i32));
            }};
        }
        macro_rules! cmp_i64 {
            ($f:expr) => {{
                let b = pop!().as_i64();
                let a = pop!().as_i64();
                stack.push(Value::I32($f(a, b) as i32));
            }};
        }
        macro_rules! bin_f32 {
            ($f:expr) => {{
                let b = pop!().as_f32();
                let a = pop!().as_f32();
                stack.push(Value::F32($f(a, b)));
            }};
        }
        macro_rules! bin_f64 {
            ($f:expr) => {{
                let b = pop!().as_f64();
                let a = pop!().as_f64();
                stack.push(Value::F64($f(a, b)));
            }};
        }
        macro_rules! cmp_f32 {
            ($f:expr) => {{
                let b = pop!().as_f32();
                let a = pop!().as_f32();
                stack.push(Value::I32($f(a, b) as i32));
            }};
        }
        macro_rules! cmp_f64 {
            ($f:expr) => {{
                let b = pop!().as_f64();
                let a = pop!().as_f64();
                stack.push(Value::I32($f(a, b) as i32));
            }};
        }
        macro_rules! un_f32 {
            ($f:expr) => {{
                let a = pop!().as_f32();
                stack.push(Value::F32($f(a)));
            }};
        }
        macro_rules! un_f64 {
            ($f:expr) => {{
                let a = pop!().as_f64();
                stack.push(Value::F64($f(a)));
            }};
        }

        loop {
            let instr = &body[pc];
            self.steps += 1;
            if self.steps > self.config.limits.fuel_budget() {
                return Err(Trap::StepBudgetExhausted);
            }
            // Per-pc accounting metadata is precomputed at preparation, so
            // the hot path is two array reads instead of two instruction
            // matches.
            self.tier_counts[tier as usize].bump(side.op_class[pc], 1);
            if let Some(kind) = side.arith[pc] {
                self.bump_arith(kind);
            }

            match instr {
                Instr::Unreachable => return Err(Trap::Unreachable),
                Instr::Nop => {}
                Instr::Block(bt) => {
                    ctrl.push(Ctrl {
                        opener_pc: pc,
                        end_pc: side.end_of[pc] as usize,
                        height: stack.len(),
                        arity: bt.arity(),
                        is_loop: false,
                    });
                }
                Instr::Loop(bt) => {
                    ctrl.push(Ctrl {
                        opener_pc: pc,
                        end_pc: side.end_of[pc] as usize,
                        height: stack.len(),
                        arity: bt.arity(),
                        is_loop: true,
                    });
                }
                Instr::If(bt) => {
                    let cond = pop!().as_i32();
                    let end_pc = side.end_of[pc] as usize;
                    ctrl.push(Ctrl {
                        opener_pc: pc,
                        end_pc,
                        height: stack.len(),
                        arity: bt.arity(),
                        is_loop: false,
                    });
                    if cond == 0 {
                        match side.else_of[pc] {
                            NO_PC => {
                                ctrl.pop();
                                pc = end_pc; // skip straight past `end`
                            }
                            else_pc => pc = else_pc as usize, // step past Else below
                        }
                    }
                }
                Instr::Else => {
                    // Reached at the end of a then-arm: jump to the frame's end.
                    let frame = ctrl.pop().expect("validated: else inside if");
                    pc = frame.end_pc;
                }
                Instr::End => {
                    match ctrl.pop() {
                        Some(_frame) => {}
                        None => {
                            // Implicit function frame: return results.
                            let result = if result_arity == 1 {
                                Some(pop!())
                            } else {
                                None
                            };
                            return Ok(result);
                        }
                    }
                }
                Instr::Br(d) => {
                    pc = self.do_branch(&mut ctrl, &mut stack, *d, def_index, &mut tier);
                    continue;
                }
                Instr::BrIf(d) => {
                    let cond = pop!().as_i32();
                    if cond != 0 {
                        pc = self.do_branch(&mut ctrl, &mut stack, *d, def_index, &mut tier);
                        continue;
                    }
                }
                Instr::BrTable(targets, default) => {
                    let idx = pop!().as_i32() as usize;
                    let d = *targets.get(idx).unwrap_or(default);
                    pc = self.do_branch(&mut ctrl, &mut stack, d, def_index, &mut tier);
                    continue;
                }
                Instr::Return => {
                    let result = if result_arity == 1 {
                        Some(pop!())
                    } else {
                        None
                    };
                    return Ok(result);
                }
                Instr::Call(f) => {
                    let (nargs, _) = prepared.call_sigs[*f as usize];
                    let call_args = stack.split_off(stack.len() - nargs as usize);
                    let r = self.call_function(*f, call_args, depth + 1)?;
                    if let Some(v) = r {
                        stack.push(v);
                    }
                    // Tier may have changed while we were away (recursion).
                    tier = self.func_state[def_index].tier;
                }
                Instr::CallIndirect(type_index) => {
                    let slot = pop!().as_i32() as u32;
                    let entry = self
                        .table
                        .get(slot as usize)
                        .copied()
                        .ok_or(Trap::TableOutOfBounds)?;
                    let target = entry.ok_or(Trap::UninitializedElement)?;
                    let actual_ty = self
                        .prepared
                        .module
                        .func_type(target)
                        .ok_or(Trap::UninitializedElement)?;
                    let expected = &self.prepared.module.types[*type_index as usize];
                    if actual_ty != expected {
                        return Err(Trap::IndirectCallTypeMismatch);
                    }
                    let nargs = expected.params.len();
                    let call_args = stack.split_off(stack.len() - nargs);
                    let r = self.call_function(target, call_args, depth + 1)?;
                    if let Some(v) = r {
                        stack.push(v);
                    }
                    tier = self.func_state[def_index].tier;
                }
                Instr::Drop => {
                    pop!();
                }
                Instr::Select => {
                    let cond = pop!().as_i32();
                    let b = pop!();
                    let a = pop!();
                    stack.push(if cond != 0 { a } else { b });
                }
                Instr::LocalGet(i) => stack.push(locals[*i as usize]),
                Instr::LocalSet(i) => locals[*i as usize] = pop!(),
                Instr::LocalTee(i) => {
                    let v = *stack.last().expect("validated");
                    locals[*i as usize] = v;
                }
                Instr::GlobalGet(i) => stack.push(self.globals[*i as usize]),
                Instr::GlobalSet(i) => self.globals[*i as usize] = pop!(),

                // --- loads ---------------------------------------------
                Instr::I32Load(m) => {
                    let v = self.load_bytes::<4>(&mut stack, m)?;
                    stack.push(Value::I32(i32::from_le_bytes(v)));
                }
                Instr::I64Load(m) => {
                    let v = self.load_bytes::<8>(&mut stack, m)?;
                    stack.push(Value::I64(i64::from_le_bytes(v)));
                }
                Instr::F32Load(m) => {
                    let v = self.load_bytes::<4>(&mut stack, m)?;
                    stack.push(Value::F32(f32::from_le_bytes(v)));
                }
                Instr::F64Load(m) => {
                    let v = self.load_bytes::<8>(&mut stack, m)?;
                    stack.push(Value::F64(f64::from_le_bytes(v)));
                }
                Instr::I32Load8S(m) => {
                    let v = self.load_bytes::<1>(&mut stack, m)?;
                    stack.push(Value::I32(v[0] as i8 as i32));
                }
                Instr::I32Load8U(m) => {
                    let v = self.load_bytes::<1>(&mut stack, m)?;
                    stack.push(Value::I32(v[0] as i32));
                }
                Instr::I32Load16S(m) => {
                    let v = self.load_bytes::<2>(&mut stack, m)?;
                    stack.push(Value::I32(i16::from_le_bytes(v) as i32));
                }
                Instr::I32Load16U(m) => {
                    let v = self.load_bytes::<2>(&mut stack, m)?;
                    stack.push(Value::I32(u16::from_le_bytes(v) as i32));
                }
                Instr::I64Load8S(m) => {
                    let v = self.load_bytes::<1>(&mut stack, m)?;
                    stack.push(Value::I64(v[0] as i8 as i64));
                }
                Instr::I64Load8U(m) => {
                    let v = self.load_bytes::<1>(&mut stack, m)?;
                    stack.push(Value::I64(v[0] as i64));
                }
                Instr::I64Load16S(m) => {
                    let v = self.load_bytes::<2>(&mut stack, m)?;
                    stack.push(Value::I64(i16::from_le_bytes(v) as i64));
                }
                Instr::I64Load16U(m) => {
                    let v = self.load_bytes::<2>(&mut stack, m)?;
                    stack.push(Value::I64(u16::from_le_bytes(v) as i64));
                }
                Instr::I64Load32S(m) => {
                    let v = self.load_bytes::<4>(&mut stack, m)?;
                    stack.push(Value::I64(i32::from_le_bytes(v) as i64));
                }
                Instr::I64Load32U(m) => {
                    let v = self.load_bytes::<4>(&mut stack, m)?;
                    stack.push(Value::I64(u32::from_le_bytes(v) as i64));
                }

                // --- stores --------------------------------------------
                Instr::I32Store(m) => {
                    let v = pop!().as_i32();
                    self.store_bytes(&mut stack, m, &v.to_le_bytes())?;
                }
                Instr::I64Store(m) => {
                    let v = pop!().as_i64();
                    self.store_bytes(&mut stack, m, &v.to_le_bytes())?;
                }
                Instr::F32Store(m) => {
                    let v = pop!().as_f32();
                    self.store_bytes(&mut stack, m, &v.to_le_bytes())?;
                }
                Instr::F64Store(m) => {
                    let v = pop!().as_f64();
                    self.store_bytes(&mut stack, m, &v.to_le_bytes())?;
                }
                Instr::I32Store8(m) => {
                    let v = pop!().as_i32();
                    self.store_bytes(&mut stack, m, &[(v & 0xff) as u8])?;
                }
                Instr::I32Store16(m) => {
                    let v = pop!().as_i32();
                    self.store_bytes(&mut stack, m, &(v as u16).to_le_bytes())?;
                }
                Instr::I64Store8(m) => {
                    let v = pop!().as_i64();
                    self.store_bytes(&mut stack, m, &[(v & 0xff) as u8])?;
                }
                Instr::I64Store16(m) => {
                    let v = pop!().as_i64();
                    self.store_bytes(&mut stack, m, &(v as u16).to_le_bytes())?;
                }
                Instr::I64Store32(m) => {
                    let v = pop!().as_i64();
                    self.store_bytes(&mut stack, m, &(v as u32).to_le_bytes())?;
                }
                Instr::MemorySize => {
                    let pages = self.memory.as_ref().map(|m| m.size_pages()).unwrap_or(0);
                    stack.push(Value::I32(pages as i32));
                }
                Instr::MemoryGrow => {
                    let delta = pop!().as_i32() as u32;
                    self.check_grow_limit(delta)?;
                    let (result, grew) = match self.memory.as_mut() {
                        Some(mem) => {
                            let r = mem.grow(delta);
                            (r, r >= 0)
                        }
                        None => (-1, false),
                    };
                    if grew {
                        self.charge(Charge::MemoryGrow {
                            pages: u64::from(delta),
                        });
                    }
                    stack.push(Value::I32(result));
                }

                // --- constants -----------------------------------------
                Instr::I32Const(v) => stack.push(Value::I32(*v)),
                Instr::I64Const(v) => stack.push(Value::I64(*v)),
                Instr::F32Const(v) => stack.push(Value::F32(*v)),
                Instr::F64Const(v) => stack.push(Value::F64(*v)),

                // --- i32 compare ---------------------------------------
                Instr::I32Eqz => {
                    let a = pop!().as_i32();
                    stack.push(Value::I32((a == 0) as i32));
                }
                Instr::I32Eq => cmp_i32!(|a, b| a == b),
                Instr::I32Ne => cmp_i32!(|a, b| a != b),
                Instr::I32LtS => cmp_i32!(|a, b| a < b),
                Instr::I32LtU => cmp_i32!(|a: i32, b: i32| (a as u32) < (b as u32)),
                Instr::I32GtS => cmp_i32!(|a, b| a > b),
                Instr::I32GtU => cmp_i32!(|a: i32, b: i32| (a as u32) > (b as u32)),
                Instr::I32LeS => cmp_i32!(|a, b| a <= b),
                Instr::I32LeU => cmp_i32!(|a: i32, b: i32| (a as u32) <= (b as u32)),
                Instr::I32GeS => cmp_i32!(|a, b| a >= b),
                Instr::I32GeU => cmp_i32!(|a: i32, b: i32| (a as u32) >= (b as u32)),
                // --- i64 compare ---------------------------------------
                Instr::I64Eqz => {
                    let a = pop!().as_i64();
                    stack.push(Value::I32((a == 0) as i32));
                }
                Instr::I64Eq => cmp_i64!(|a, b| a == b),
                Instr::I64Ne => cmp_i64!(|a, b| a != b),
                Instr::I64LtS => cmp_i64!(|a, b| a < b),
                Instr::I64LtU => cmp_i64!(|a: i64, b: i64| (a as u64) < (b as u64)),
                Instr::I64GtS => cmp_i64!(|a, b| a > b),
                Instr::I64GtU => cmp_i64!(|a: i64, b: i64| (a as u64) > (b as u64)),
                Instr::I64LeS => cmp_i64!(|a, b| a <= b),
                Instr::I64LeU => cmp_i64!(|a: i64, b: i64| (a as u64) <= (b as u64)),
                Instr::I64GeS => cmp_i64!(|a, b| a >= b),
                Instr::I64GeU => cmp_i64!(|a: i64, b: i64| (a as u64) >= (b as u64)),
                // --- float compare -------------------------------------
                Instr::F32Eq => cmp_f32!(|a, b| a == b),
                Instr::F32Ne => cmp_f32!(|a, b| a != b),
                Instr::F32Lt => cmp_f32!(|a, b| a < b),
                Instr::F32Gt => cmp_f32!(|a, b| a > b),
                Instr::F32Le => cmp_f32!(|a, b| a <= b),
                Instr::F32Ge => cmp_f32!(|a, b| a >= b),
                Instr::F64Eq => cmp_f64!(|a, b| a == b),
                Instr::F64Ne => cmp_f64!(|a, b| a != b),
                Instr::F64Lt => cmp_f64!(|a, b| a < b),
                Instr::F64Gt => cmp_f64!(|a, b| a > b),
                Instr::F64Le => cmp_f64!(|a, b| a <= b),
                Instr::F64Ge => cmp_f64!(|a, b| a >= b),

                // --- i32 arithmetic ------------------------------------
                Instr::I32Clz => {
                    let a = pop!().as_i32();
                    stack.push(Value::I32(a.leading_zeros() as i32));
                }
                Instr::I32Ctz => {
                    let a = pop!().as_i32();
                    stack.push(Value::I32(a.trailing_zeros() as i32));
                }
                Instr::I32Popcnt => {
                    let a = pop!().as_i32();
                    stack.push(Value::I32(a.count_ones() as i32));
                }
                Instr::I32Add => bin_i32!(i32::wrapping_add),
                Instr::I32Sub => bin_i32!(i32::wrapping_sub),
                Instr::I32Mul => bin_i32!(i32::wrapping_mul),
                Instr::I32DivS => {
                    let b = pop!().as_i32();
                    let a = pop!().as_i32();
                    if b == 0 {
                        return Err(Trap::DivByZero);
                    }
                    if a == i32::MIN && b == -1 {
                        return Err(Trap::IntegerOverflow);
                    }
                    stack.push(Value::I32(a.wrapping_div(b)));
                }
                Instr::I32DivU => {
                    let b = pop!().as_i32() as u32;
                    let a = pop!().as_i32() as u32;
                    if b == 0 {
                        return Err(Trap::DivByZero);
                    }
                    stack.push(Value::I32((a / b) as i32));
                }
                Instr::I32RemS => {
                    let b = pop!().as_i32();
                    let a = pop!().as_i32();
                    if b == 0 {
                        return Err(Trap::DivByZero);
                    }
                    stack.push(Value::I32(a.wrapping_rem(b)));
                }
                Instr::I32RemU => {
                    let b = pop!().as_i32() as u32;
                    let a = pop!().as_i32() as u32;
                    if b == 0 {
                        return Err(Trap::DivByZero);
                    }
                    stack.push(Value::I32((a % b) as i32));
                }
                Instr::I32And => bin_i32!(|a, b| a & b),
                Instr::I32Or => bin_i32!(|a, b| a | b),
                Instr::I32Xor => bin_i32!(|a, b| a ^ b),
                Instr::I32Shl => bin_i32!(|a: i32, b: i32| a.wrapping_shl(b as u32)),
                Instr::I32ShrS => bin_i32!(|a: i32, b: i32| a.wrapping_shr(b as u32)),
                Instr::I32ShrU => {
                    bin_i32!(|a: i32, b: i32| ((a as u32).wrapping_shr(b as u32)) as i32)
                }
                Instr::I32Rotl => bin_i32!(|a: i32, b: i32| a.rotate_left(b as u32 & 31)),
                Instr::I32Rotr => bin_i32!(|a: i32, b: i32| a.rotate_right(b as u32 & 31)),
                // --- i64 arithmetic ------------------------------------
                Instr::I64Clz => {
                    let a = pop!().as_i64();
                    stack.push(Value::I64(a.leading_zeros() as i64));
                }
                Instr::I64Ctz => {
                    let a = pop!().as_i64();
                    stack.push(Value::I64(a.trailing_zeros() as i64));
                }
                Instr::I64Popcnt => {
                    let a = pop!().as_i64();
                    stack.push(Value::I64(a.count_ones() as i64));
                }
                Instr::I64Add => bin_i64!(i64::wrapping_add),
                Instr::I64Sub => bin_i64!(i64::wrapping_sub),
                Instr::I64Mul => bin_i64!(i64::wrapping_mul),
                Instr::I64DivS => {
                    let b = pop!().as_i64();
                    let a = pop!().as_i64();
                    if b == 0 {
                        return Err(Trap::DivByZero);
                    }
                    if a == i64::MIN && b == -1 {
                        return Err(Trap::IntegerOverflow);
                    }
                    stack.push(Value::I64(a.wrapping_div(b)));
                }
                Instr::I64DivU => {
                    let b = pop!().as_i64() as u64;
                    let a = pop!().as_i64() as u64;
                    if b == 0 {
                        return Err(Trap::DivByZero);
                    }
                    stack.push(Value::I64((a / b) as i64));
                }
                Instr::I64RemS => {
                    let b = pop!().as_i64();
                    let a = pop!().as_i64();
                    if b == 0 {
                        return Err(Trap::DivByZero);
                    }
                    stack.push(Value::I64(a.wrapping_rem(b)));
                }
                Instr::I64RemU => {
                    let b = pop!().as_i64() as u64;
                    let a = pop!().as_i64() as u64;
                    if b == 0 {
                        return Err(Trap::DivByZero);
                    }
                    stack.push(Value::I64((a % b) as i64));
                }
                Instr::I64And => bin_i64!(|a, b| a & b),
                Instr::I64Or => bin_i64!(|a, b| a | b),
                Instr::I64Xor => bin_i64!(|a, b| a ^ b),
                Instr::I64Shl => bin_i64!(|a: i64, b: i64| a.wrapping_shl(b as u32)),
                Instr::I64ShrS => bin_i64!(|a: i64, b: i64| a.wrapping_shr(b as u32)),
                Instr::I64ShrU => {
                    bin_i64!(|a: i64, b: i64| ((a as u64).wrapping_shr(b as u32)) as i64)
                }
                Instr::I64Rotl => bin_i64!(|a: i64, b: i64| a.rotate_left(b as u32 & 63)),
                Instr::I64Rotr => bin_i64!(|a: i64, b: i64| a.rotate_right(b as u32 & 63)),

                // --- f32 arithmetic ------------------------------------
                Instr::F32Abs => un_f32!(f32::abs),
                Instr::F32Neg => un_f32!(|a: f32| -a),
                Instr::F32Ceil => un_f32!(f32::ceil),
                Instr::F32Floor => un_f32!(f32::floor),
                Instr::F32Trunc => un_f32!(f32::trunc),
                Instr::F32Nearest => un_f32!(f32::round_ties_even),
                Instr::F32Sqrt => un_f32!(f32::sqrt),
                Instr::F32Add => bin_f32!(|a, b| a + b),
                Instr::F32Sub => bin_f32!(|a, b| a - b),
                Instr::F32Mul => bin_f32!(|a, b| a * b),
                Instr::F32Div => bin_f32!(|a, b| a / b),
                Instr::F32Min => bin_f32!(wasm_min_f32),
                Instr::F32Max => bin_f32!(wasm_max_f32),
                Instr::F32Copysign => bin_f32!(f32::copysign),
                // --- f64 arithmetic ------------------------------------
                Instr::F64Abs => un_f64!(f64::abs),
                Instr::F64Neg => un_f64!(|a: f64| -a),
                Instr::F64Ceil => un_f64!(f64::ceil),
                Instr::F64Floor => un_f64!(f64::floor),
                Instr::F64Trunc => un_f64!(f64::trunc),
                Instr::F64Nearest => un_f64!(f64::round_ties_even),
                Instr::F64Sqrt => un_f64!(f64::sqrt),
                Instr::F64Add => bin_f64!(|a, b| a + b),
                Instr::F64Sub => bin_f64!(|a, b| a - b),
                Instr::F64Mul => bin_f64!(|a, b| a * b),
                Instr::F64Div => bin_f64!(|a, b| a / b),
                Instr::F64Min => bin_f64!(wasm_min_f64),
                Instr::F64Max => bin_f64!(wasm_max_f64),
                Instr::F64Copysign => bin_f64!(f64::copysign),

                // --- conversions ---------------------------------------
                Instr::I32WrapI64 => {
                    let a = pop!().as_i64();
                    stack.push(Value::I32(a as i32));
                }
                Instr::I32TruncF32S => {
                    let a = pop!().as_f32() as f64;
                    stack.push(Value::I32(trunc_to_i32(a)?));
                }
                Instr::I32TruncF32U => {
                    let a = pop!().as_f32() as f64;
                    stack.push(Value::I32(trunc_to_u32(a)? as i32));
                }
                Instr::I32TruncF64S => {
                    let a = pop!().as_f64();
                    stack.push(Value::I32(trunc_to_i32(a)?));
                }
                Instr::I32TruncF64U => {
                    let a = pop!().as_f64();
                    stack.push(Value::I32(trunc_to_u32(a)? as i32));
                }
                Instr::I64ExtendI32S => {
                    let a = pop!().as_i32();
                    stack.push(Value::I64(a as i64));
                }
                Instr::I64ExtendI32U => {
                    let a = pop!().as_i32();
                    stack.push(Value::I64(a as u32 as i64));
                }
                Instr::I64TruncF32S => {
                    let a = pop!().as_f32() as f64;
                    stack.push(Value::I64(trunc_to_i64(a)?));
                }
                Instr::I64TruncF32U => {
                    let a = pop!().as_f32() as f64;
                    stack.push(Value::I64(trunc_to_u64(a)? as i64));
                }
                Instr::I64TruncF64S => {
                    let a = pop!().as_f64();
                    stack.push(Value::I64(trunc_to_i64(a)?));
                }
                Instr::I64TruncF64U => {
                    let a = pop!().as_f64();
                    stack.push(Value::I64(trunc_to_u64(a)? as i64));
                }
                Instr::F32ConvertI32S => {
                    let a = pop!().as_i32();
                    stack.push(Value::F32(a as f32));
                }
                Instr::F32ConvertI32U => {
                    let a = pop!().as_i32() as u32;
                    stack.push(Value::F32(a as f32));
                }
                Instr::F32ConvertI64S => {
                    let a = pop!().as_i64();
                    stack.push(Value::F32(a as f32));
                }
                Instr::F32ConvertI64U => {
                    let a = pop!().as_i64() as u64;
                    stack.push(Value::F32(a as f32));
                }
                Instr::F32DemoteF64 => {
                    let a = pop!().as_f64();
                    stack.push(Value::F32(a as f32));
                }
                Instr::F64ConvertI32S => {
                    let a = pop!().as_i32();
                    stack.push(Value::F64(a as f64));
                }
                Instr::F64ConvertI32U => {
                    let a = pop!().as_i32() as u32;
                    stack.push(Value::F64(a as f64));
                }
                Instr::F64ConvertI64S => {
                    let a = pop!().as_i64();
                    stack.push(Value::F64(a as f64));
                }
                Instr::F64ConvertI64U => {
                    let a = pop!().as_i64() as u64;
                    stack.push(Value::F64(a as f64));
                }
                Instr::F64PromoteF32 => {
                    let a = pop!().as_f32();
                    stack.push(Value::F64(a as f64));
                }
                Instr::I32ReinterpretF32 => {
                    let a = pop!().as_f32();
                    stack.push(Value::I32(a.to_bits() as i32));
                }
                Instr::I64ReinterpretF64 => {
                    let a = pop!().as_f64();
                    stack.push(Value::I64(a.to_bits() as i64));
                }
                Instr::F32ReinterpretI32 => {
                    let a = pop!().as_i32();
                    stack.push(Value::F32(f32::from_bits(a as u32)));
                }
                Instr::F64ReinterpretI64 => {
                    let a = pop!().as_i64();
                    stack.push(Value::F64(f64::from_bits(a as u64)));
                }
            }
            pc += 1;
        }
    }

    /// Perform a branch to relative depth `d`; returns the new pc.
    fn do_branch(
        &mut self,
        ctrl: &mut Vec<Ctrl>,
        stack: &mut Vec<Value>,
        d: u32,
        def_index: usize,
        tier: &mut Tier,
    ) -> usize {
        let target_idx = ctrl.len() - 1 - d as usize;
        let target = &ctrl[target_idx];
        if target.is_loop {
            // Back-edge: loop hotness drives tier-up (OSR-style).
            let opener = target.opener_pc;
            let height = target.height;
            ctrl.truncate(target_idx + 1);
            stack.truncate(height);
            self.note_hotness(def_index, 1);
            *tier = self.func_state[def_index].tier;
            opener + 1
        } else {
            let arity = target.arity;
            let height = target.height;
            let end_pc = target.end_pc;
            let keep = stack.split_off(stack.len() - arity);
            stack.truncate(height);
            stack.extend(keep);
            ctrl.truncate(target_idx);
            end_pc + 1
        }
    }

    /// Bump a function's hotness; tier up when the threshold is crossed
    /// (Default policy only). Records the optimizing compile of the
    /// function at the moment of tier-up, as browsers do at runtime.
    ///
    /// This and the initial tier choice are the only places execution
    /// reads the engine profile, and only `tier_up_threshold` under
    /// [`TierPolicy::Default`]. Together with the tier policy, the
    /// limits and `reference_exec` that is all of a config execution
    /// depends on: [`crate::WasmVmConfig::projection`]. Every cost
    /// parameter is applied later, by [`wb_env::price`].
    pub(crate) fn note_hotness(&mut self, def_index: usize, amount: u64) {
        let state = &mut self.func_state[def_index];
        state.hotness += amount;
        if state.tier == Tier::Baseline
            && self.config.tier_policy == TierPolicy::Default
            && state.hotness >= self.config.profile.tier_up_threshold
        {
            state.tier = Tier::Optimizing;
            self.tier_ups += 1;
            let units = self.prepared.module.functions[def_index].body.len() as u64;
            self.charge(Charge::WasmTierUp { units });
        }
    }

    fn effective_addr(stack: &mut Vec<Value>, m: &MemArg) -> u64 {
        let base = stack.pop().expect("validated").as_i32() as u32 as u64;
        base + m.offset as u64
    }

    fn load_bytes<const N: usize>(
        &mut self,
        stack: &mut Vec<Value>,
        m: &MemArg,
    ) -> Result<[u8; N], Trap> {
        let addr = Self::effective_addr(stack, m);
        let mem = self.memory.as_ref().ok_or(Trap::MemoryOutOfBounds {
            addr,
            width: N as u32,
        })?;
        let s = mem
            .read(addr, N as u32)
            .map_err(|_| Trap::MemoryOutOfBounds {
                addr,
                width: N as u32,
            })?;
        let mut out = [0u8; N];
        out.copy_from_slice(s);
        Ok(out)
    }

    fn store_bytes(
        &mut self,
        stack: &mut Vec<Value>,
        m: &MemArg,
        bytes: &[u8],
    ) -> Result<(), Trap> {
        let addr = Self::effective_addr(stack, m);
        let mem = self.memory.as_mut().ok_or(Trap::MemoryOutOfBounds {
            addr,
            width: bytes.len() as u32,
        })?;
        mem.write(addr, bytes).map_err(|_| Trap::MemoryOutOfBounds {
            addr,
            width: bytes.len() as u32,
        })
    }

    fn call_host(&mut self, import_index: u32, args: &[Value]) -> Result<Option<Value>, Trap> {
        let imp = &self.prepared.module.imports[import_index as usize];
        let key = format!("{}.{}", imp.module, imp.field);
        // Each host call crosses the boundary twice (out and back).
        self.cross_boundary();
        let mut f = self
            .hostfns
            .remove(&key)
            .ok_or(Trap::MissingImport { name: key.clone() })?;
        let result = {
            let mut ctx = HostCtx {
                memory: self.memory.as_mut(),
                output: &mut self.output,
            };
            f(&mut ctx, args)
        };
        self.hostfns.insert(key, f);
        self.cross_boundary();
        result
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
