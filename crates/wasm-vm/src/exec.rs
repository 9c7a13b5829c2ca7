//! The execution core: the one dispatch loop of the Wasm VM. It
//! interprets the [`Mop`](crate::fuse::Mop) stream produced by `fuse.rs`
//! over an **untagged `u64` operand stack** and untagged locals, with
//! full MVP semantics, per-instruction cost accounting per hotness
//! band.
//!
//! The stream is fused by default and one singleton op per instruction
//! under `reference_exec`. Cost-equivalence contract (checked by the
//! fusion-on vs fusion-off differential tests and the static audit): a
//! fused arm bumps, for every retired constituent instruction, the same
//! `(band, OpClass)` counter and the same Table 12 arithmetic counter,
//! in the same order relative to traps and band crossings, as the
//! constituents' singleton arms. Values ↔ bits conversion happens only
//! at call, host and invoke boundaries, where tagged [`Value`]s are the
//! interface type. The only permitted divergence is *where inside a fused
//! group* a step-budget exhaustion is detected (the budget is consumed in
//! one batch); budget-trapped runs are never measured.

use crate::engine::Instance;
use crate::fuse::{bits_to_value, value_bits, LoadKind, Mop, StoreKind};
use crate::prep::NO_PC;
use crate::trap::Trap;
use crate::value::Value;
use std::sync::Arc;
use wb_env::{Charge, OpClass};

/// A control frame over the micro-op stream. `after_end` is the micro-op
/// index just past the frame's `end`; `restart` is the back-edge target
/// (loops only).
struct FCtrl {
    restart: u32,
    after_end: u32,
    height: usize,
    arity: usize,
    is_loop: bool,
}

impl Instance {
    /// Execute `def_index` over its micro-op stream: fused, or one op per
    /// instruction under `reference_exec`. Both charge the same
    /// virtual-cost sequence.
    pub(crate) fn run_body(
        &mut self,
        def_index: usize,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<Option<Value>, Trap> {
        let prepared = Arc::clone(&self.prepared);
        let lowered = prepared.lowered(def_index, !self.config.reference_exec);
        let func = &prepared.module.functions[def_index];
        let ty = &prepared.module.types[func.type_index as usize];
        let result_ty = ty.results.first().copied();

        let mut locals: Vec<u64> = Vec::with_capacity(args.len() + func.locals.len());
        locals.extend(args.iter().map(|v| value_bits(*v)));
        locals.extend(std::iter::repeat_n(0u64, func.locals.len()));

        let mut stack: Vec<u64> = Vec::with_capacity(16);
        let mut ctrl: Vec<FCtrl> = Vec::with_capacity(8);
        let code = &lowered.code;
        let mut pc = 0usize;
        let mut band = self.func_state[def_index].band;

        macro_rules! pop {
            () => {
                stack.pop().expect("validated: operand present")
            };
        }
        // Batched step-budget consumption for a whole group.
        macro_rules! steps {
            ($n:expr) => {
                self.steps += $n;
                if self.steps > self.config.limits.fuel_budget() {
                    return Err(Trap::StepBudgetExhausted);
                }
            };
        }
        // Charge `$n` retired ops of class `$c` in the current band.
        macro_rules! bump {
            ($c:expr, $n:expr) => {
                self.band_counts.ops[band].bump($c, $n)
            };
        }
        // Charge a binop constituent: its class plus its Table 12 kind.
        macro_rules! bump_bin {
            ($op:expr) => {
                bump!($op.class(), 1);
                if let Some(kind) = $op.arith() {
                    self.bump_arith(kind);
                }
            };
        }
        macro_rules! branch_to {
            ($d:expr) => {{
                pc = Self::take_branch(self, &mut ctrl, &mut stack, $d, def_index, &mut band);
                continue;
            }};
        }
        macro_rules! ret {
            () => {{
                let result = match result_ty {
                    Some(t) => Some(bits_to_value(t, pop!())),
                    None => None,
                };
                return Ok(result);
            }};
        }

        loop {
            match &code[pc] {
                // ---- singleton control ---------------------------------
                Mop::Unreachable => {
                    steps!(1);
                    bump!(OpClass::Other, 1);
                    return Err(Trap::Unreachable);
                }
                Mop::Nop => {
                    steps!(1);
                    bump!(OpClass::Other, 1);
                }
                Mop::Block { after_end, arity } => {
                    steps!(1);
                    bump!(OpClass::Other, 1);
                    ctrl.push(FCtrl {
                        restart: 0,
                        after_end: *after_end,
                        height: stack.len(),
                        arity: *arity as usize,
                        is_loop: false,
                    });
                }
                Mop::Loop { after_end } => {
                    steps!(1);
                    bump!(OpClass::Other, 1);
                    ctrl.push(FCtrl {
                        restart: (pc + 1) as u32,
                        after_end: *after_end,
                        height: stack.len(),
                        arity: 0,
                        is_loop: true,
                    });
                }
                Mop::If {
                    after_end,
                    else_skip,
                    arity,
                } => {
                    steps!(1);
                    bump!(OpClass::Branch, 1);
                    let cond = pop!() as u32;
                    ctrl.push(FCtrl {
                        restart: 0,
                        after_end: *after_end,
                        height: stack.len(),
                        arity: *arity as usize,
                        is_loop: false,
                    });
                    if cond == 0 {
                        if *else_skip == NO_PC {
                            let frame = ctrl.pop().expect("just pushed");
                            pc = frame.after_end as usize;
                        } else {
                            pc = *else_skip as usize;
                        }
                        continue;
                    }
                }
                Mop::Else => {
                    steps!(1);
                    bump!(OpClass::Other, 1);
                    // Reached at the end of a then-arm: jump past the end.
                    let frame = ctrl.pop().expect("validated: else inside if");
                    pc = frame.after_end as usize;
                    continue;
                }
                Mop::End => {
                    steps!(1);
                    bump!(OpClass::Other, 1);
                    match ctrl.pop() {
                        Some(_frame) => {}
                        None => ret!(),
                    }
                }
                Mop::Br(d) => {
                    steps!(1);
                    bump!(OpClass::Branch, 1);
                    branch_to!(*d);
                }
                Mop::BrIf(d) => {
                    steps!(1);
                    bump!(OpClass::Branch, 1);
                    let cond = pop!() as u32;
                    if cond != 0 {
                        branch_to!(*d);
                    }
                }
                Mop::BrTable(targets, default) => {
                    steps!(1);
                    bump!(OpClass::Branch, 1);
                    let idx = (pop!() as u32 as i32) as usize;
                    let d = *targets.get(idx).unwrap_or(default);
                    branch_to!(d);
                }
                Mop::Return => {
                    steps!(1);
                    bump!(OpClass::Branch, 1);
                    ret!();
                }
                Mop::Call(f) => {
                    steps!(1);
                    bump!(OpClass::Call, 1);
                    let f = *f;
                    let nargs = prepared.call_sigs[f as usize].0 as usize;
                    let cty = prepared.module.func_type(f).expect("validated: callee");
                    let base = stack.len() - nargs;
                    let call_args: Vec<Value> = cty
                        .params
                        .iter()
                        .zip(&stack[base..])
                        .map(|(t, bits)| bits_to_value(*t, *bits))
                        .collect();
                    stack.truncate(base);
                    let r = self.call_function(f, call_args, depth + 1)?;
                    if let Some(v) = r {
                        stack.push(value_bits(v));
                    }
                    // The band may have changed while we were away
                    // (recursion).
                    band = self.func_state[def_index].band;
                }
                Mop::CallIndirect(type_index) => {
                    steps!(1);
                    bump!(OpClass::Call, 1);
                    let slot = pop!() as u32;
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
                    let expected = &prepared.module.types[*type_index as usize];
                    if actual_ty != expected {
                        return Err(Trap::IndirectCallTypeMismatch);
                    }
                    let nargs = expected.params.len();
                    let base = stack.len() - nargs;
                    let call_args: Vec<Value> = expected
                        .params
                        .iter()
                        .zip(&stack[base..])
                        .map(|(t, bits)| bits_to_value(*t, *bits))
                        .collect();
                    stack.truncate(base);
                    let r = self.call_function(target, call_args, depth + 1)?;
                    if let Some(v) = r {
                        stack.push(value_bits(v));
                    }
                    band = self.func_state[def_index].band;
                }

                // ---- singleton data ops --------------------------------
                Mop::Drop => {
                    steps!(1);
                    bump!(OpClass::Other, 1);
                    pop!();
                }
                Mop::Select => {
                    steps!(1);
                    bump!(OpClass::Other, 1);
                    let cond = pop!() as u32;
                    let b = pop!();
                    let a = pop!();
                    stack.push(if cond != 0 { a } else { b });
                }
                Mop::LocalGet(i) => {
                    steps!(1);
                    bump!(OpClass::Local, 1);
                    stack.push(locals[*i as usize]);
                }
                Mop::LocalSet(i) => {
                    steps!(1);
                    bump!(OpClass::Local, 1);
                    locals[*i as usize] = pop!();
                }
                Mop::LocalTee(i) => {
                    steps!(1);
                    bump!(OpClass::Local, 1);
                    locals[*i as usize] = *stack.last().expect("validated");
                }
                Mop::GlobalGet(i) => {
                    steps!(1);
                    bump!(OpClass::Global, 1);
                    stack.push(value_bits(self.globals[*i as usize]));
                }
                Mop::GlobalSet { idx, ty } => {
                    steps!(1);
                    bump!(OpClass::Global, 1);
                    self.globals[*idx as usize] = bits_to_value(*ty, pop!());
                }
                Mop::Load { kind, offset } => {
                    steps!(1);
                    bump!(OpClass::Load, 1);
                    let addr = (pop!() as u32 as u64) + offset;
                    let v = self.load_u64(*kind, addr)?;
                    stack.push(v);
                }
                Mop::Store { kind, offset } => {
                    steps!(1);
                    bump!(OpClass::Store, 1);
                    let v = pop!();
                    let addr = (pop!() as u32 as u64) + offset;
                    self.store_u64(*kind, addr, v)?;
                }
                Mop::MemorySize => {
                    steps!(1);
                    bump!(OpClass::Other, 1);
                    let pages = self.memory.as_ref().map(|m| m.size_pages()).unwrap_or(0);
                    stack.push(u64::from(pages));
                }
                Mop::MemoryGrow => {
                    steps!(1);
                    bump!(OpClass::Other, 1);
                    let delta = pop!() as u32;
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
                    stack.push(result as u32 as u64);
                }
                Mop::Const(c) => {
                    steps!(1);
                    bump!(OpClass::Const, 1);
                    stack.push(*c);
                }
                Mop::Un(un) => {
                    steps!(1);
                    bump!(un.class(), 1);
                    let a = pop!();
                    stack.push(un.apply(a)?);
                }
                Mop::Bin(op) => {
                    steps!(1);
                    bump_bin!(op);
                    let b = pop!();
                    let a = pop!();
                    stack.push(op.apply(a, b)?);
                }

                // ---- fused superinstructions ---------------------------
                // Constituent accounting happens in source order, and the
                // fusable op's own bump lands *before* its potential trap,
                // exactly as the constituents' singleton arms charge it.
                Mop::LLBin { a, b, op } => {
                    steps!(3);
                    bump!(OpClass::Local, 2);
                    bump_bin!(op);
                    let r = op.apply(locals[*a as usize], locals[*b as usize])?;
                    stack.push(r);
                }
                Mop::LLBinSet { a, b, dst, op } => {
                    steps!(4);
                    bump!(OpClass::Local, 2);
                    bump_bin!(op);
                    let r = op.apply(locals[*a as usize], locals[*b as usize])?;
                    bump!(OpClass::Local, 1);
                    locals[*dst as usize] = r;
                }
                Mop::LCBin { a, c, op } => {
                    steps!(3);
                    bump!(OpClass::Local, 1);
                    bump!(OpClass::Const, 1);
                    bump_bin!(op);
                    let r = op.apply(locals[*a as usize], *c)?;
                    stack.push(r);
                }
                Mop::LCBinSet { a, c, dst, op } => {
                    steps!(4);
                    bump!(OpClass::Local, 1);
                    bump!(OpClass::Const, 1);
                    bump_bin!(op);
                    let r = op.apply(locals[*a as usize], *c)?;
                    bump!(OpClass::Local, 1);
                    locals[*dst as usize] = r;
                }
                Mop::LBin { b, op } => {
                    steps!(2);
                    bump!(OpClass::Local, 1);
                    bump_bin!(op);
                    let a = pop!();
                    stack.push(op.apply(a, locals[*b as usize])?);
                }
                Mop::CBin { c, op } => {
                    steps!(2);
                    bump!(OpClass::Const, 1);
                    bump_bin!(op);
                    let a = pop!();
                    stack.push(op.apply(a, *c)?);
                }
                Mop::CBinSet { c, dst, op } => {
                    steps!(3);
                    bump!(OpClass::Const, 1);
                    bump_bin!(op);
                    let a = pop!();
                    let r = op.apply(a, *c)?;
                    bump!(OpClass::Local, 1);
                    locals[*dst as usize] = r;
                }
                Mop::BinSet { dst, op } => {
                    steps!(2);
                    bump_bin!(op);
                    let b = pop!();
                    let a = pop!();
                    let r = op.apply(a, b)?;
                    bump!(OpClass::Local, 1);
                    locals[*dst as usize] = r;
                }
                Mop::LConst { c, dst } => {
                    steps!(2);
                    bump!(OpClass::Const, 1);
                    bump!(OpClass::Local, 1);
                    locals[*dst as usize] = *c;
                }
                Mop::LocalCopy { src, dst } => {
                    steps!(2);
                    bump!(OpClass::Local, 2);
                    locals[*dst as usize] = locals[*src as usize];
                }
                Mop::LLCmpBr { a, b, op, depth } => {
                    steps!(4);
                    bump!(OpClass::Local, 2);
                    bump_bin!(op);
                    let cond = op.apply(locals[*a as usize], locals[*b as usize])? as u32;
                    bump!(OpClass::Branch, 1);
                    if cond != 0 {
                        branch_to!(*depth);
                    }
                }
                Mop::LCCmpBr { a, c, op, depth } => {
                    steps!(4);
                    bump!(OpClass::Local, 1);
                    bump!(OpClass::Const, 1);
                    bump_bin!(op);
                    let cond = op.apply(locals[*a as usize], *c)? as u32;
                    bump!(OpClass::Branch, 1);
                    if cond != 0 {
                        branch_to!(*depth);
                    }
                }
                Mop::CmpBr { op, depth } => {
                    steps!(2);
                    bump_bin!(op);
                    let b = pop!();
                    let a = pop!();
                    let cond = op.apply(a, b)? as u32;
                    bump!(OpClass::Branch, 1);
                    if cond != 0 {
                        branch_to!(*depth);
                    }
                }
                Mop::LUnBr { a, un, depth } => {
                    steps!(3);
                    bump!(OpClass::Local, 1);
                    bump!(un.class(), 1);
                    let cond = un.apply(locals[*a as usize])? as u32;
                    bump!(OpClass::Branch, 1);
                    if cond != 0 {
                        branch_to!(*depth);
                    }
                }
                Mop::UnBr { un, depth } => {
                    steps!(2);
                    bump!(un.class(), 1);
                    let a = pop!();
                    let cond = un.apply(a)? as u32;
                    bump!(OpClass::Branch, 1);
                    if cond != 0 {
                        branch_to!(*depth);
                    }
                }
                Mop::LLoad { a, kind, offset } => {
                    steps!(2);
                    bump!(OpClass::Local, 1);
                    bump!(OpClass::Load, 1);
                    let addr = (locals[*a as usize] as u32 as u64) + offset;
                    let v = self.load_u64(*kind, addr)?;
                    stack.push(v);
                }
                Mop::LLStore { a, b, kind, offset } => {
                    steps!(3);
                    bump!(OpClass::Local, 2);
                    bump!(OpClass::Store, 1);
                    let addr = (locals[*a as usize] as u32 as u64) + offset;
                    self.store_u64(*kind, addr, locals[*b as usize])?;
                }
            }
            pc += 1;
        }
    }

    /// Perform a branch to relative depth `d`; returns the new micro-op
    /// index. A taken loop back-edge notes hotness.
    fn take_branch(
        &mut self,
        ctrl: &mut Vec<FCtrl>,
        stack: &mut Vec<u64>,
        d: u32,
        def_index: usize,
        band: &mut usize,
    ) -> usize {
        let target_idx = ctrl.len() - 1 - d as usize;
        let target = &ctrl[target_idx];
        if target.is_loop {
            // Back-edge: loop hotness moves the band (tier-up is
            // OSR-style).
            let restart = target.restart as usize;
            let height = target.height;
            ctrl.truncate(target_idx + 1);
            stack.truncate(height);
            self.note_hotness(def_index, 1);
            *band = self.func_state[def_index].band;
            restart
        } else {
            let arity = target.arity;
            let height = target.height;
            let after_end = target.after_end as usize;
            let keep = stack.split_off(stack.len() - arity);
            stack.truncate(height);
            stack.extend(keep);
            ctrl.truncate(target_idx);
            after_end
        }
    }

    /// Bounds-checked load returning untagged bits (extension baked into
    /// `kind`); an out-of-bounds access traps with its address and width.
    fn load_u64(&self, kind: LoadKind, addr: u64) -> Result<u64, Trap> {
        // `mem.read` returns exactly `width` bytes, so the zero-pad in
        // `arr` never fires; it exists to keep this path panic-free.
        fn arr<const N: usize>(s: &[u8]) -> [u8; N] {
            let mut b = [0u8; N];
            for (d, x) in b.iter_mut().zip(s) {
                *d = *x;
            }
            b
        }
        let width = kind.width();
        let oob = Trap::MemoryOutOfBounds { addr, width };
        let mem = self.memory.as_ref().ok_or(oob.clone())?;
        let s = mem.read(addr, width).map_err(|_| oob)?;
        Ok(match kind {
            LoadKind::I32 => u32::from_le_bytes(arr(s)) as u64,
            LoadKind::I64 => u64::from_le_bytes(arr(s)),
            LoadKind::F32 => u32::from_le_bytes(arr(s)) as u64,
            LoadKind::F64 => u64::from_le_bytes(arr(s)),
            LoadKind::I32S8 => (s[0] as i8 as i32) as u32 as u64,
            LoadKind::I32U8 => s[0] as u64,
            LoadKind::I32S16 => (i16::from_le_bytes(arr(s)) as i32) as u32 as u64,
            LoadKind::I32U16 => u16::from_le_bytes(arr(s)) as u64,
            LoadKind::I64S8 => (s[0] as i8 as i64) as u64,
            LoadKind::I64U8 => s[0] as u64,
            LoadKind::I64S16 => (i16::from_le_bytes(arr(s)) as i64) as u64,
            LoadKind::I64U16 => u16::from_le_bytes(arr(s)) as u64,
            LoadKind::I64S32 => (i32::from_le_bytes(arr(s)) as i64) as u64,
            LoadKind::I64U32 => u32::from_le_bytes(arr(s)) as u64,
        })
    }

    /// Bounds-checked store of untagged bits (truncation baked into
    /// `kind`); an out-of-bounds access traps with its address and width.
    fn store_u64(&mut self, kind: StoreKind, addr: u64, v: u64) -> Result<(), Trap> {
        let width = kind.width();
        let oob = Trap::MemoryOutOfBounds { addr, width };
        let mem = self.memory.as_mut().ok_or(oob.clone())?;
        let r = match kind {
            StoreKind::I32 | StoreKind::I64As32 | StoreKind::F32 => {
                mem.write(addr, &(v as u32).to_le_bytes())
            }
            StoreKind::I64 | StoreKind::F64 => mem.write(addr, &v.to_le_bytes()),
            StoreKind::I32As8 | StoreKind::I64As8 => mem.write(addr, &[v as u8]),
            StoreKind::I32As16 | StoreKind::I64As16 => mem.write(addr, &(v as u16).to_le_bytes()),
        };
        r.map_err(|_| oob)
    }
}
