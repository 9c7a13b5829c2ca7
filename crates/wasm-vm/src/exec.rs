//! The execution core: the one dispatch loop of the Wasm VM. It
//! interprets the [`Mop`](crate::fuse::Mop) stream produced by `fuse.rs`
//! over an **untagged `u64` operand stack** and untagged locals, with
//! full MVP semantics, counting region entries per hotness band.
//!
//! The stream is fused by default and one singleton op per instruction
//! under `reference_exec`; both run the same regions (see `fuse.rs`
//! `region_heads`). The arms charge nothing per op. Each control arm that
//! moves into a region (function entry, a branch, a fall-through into a
//! branch target, the return from a call) checks the fuel budget, adds
//! the region's instruction count to the fuel spent, and adds one to the
//! region's counter in the function's current band. Reading a record
//! folds those counters times each region's class and Table 12 vector
//! (`Instance::record`); a band crossing happens only at function entry
//! and taken loop back-edges, which are region boundaries, so every
//! region is counted in the band its instructions retire in. A trap
//! inside a region takes back the region's count on the cold path and
//! charges its instructions up to and including the trapping one, as
//! per-op counting would have. Values ↔ bits conversion happens only at
//! call, host and invoke boundaries, where tagged [`Value`]s are the
//! interface type. The budget is checked against the regions already
//! run, so a region that overruns it runs to its end, its call or a trap,
//! and the run then stops with `StepBudgetExhausted` (at the next head,
//! before a host call, or on the way out in `Instance::invoke`): which
//! runs run out, and which trap the others report, are per-op counting's.
//! Only the state a budget-stopped run leaves behind differs, and such
//! runs are never measured.

use crate::classify::{arith_kind, can_trap, classify};
use crate::engine::Instance;
use crate::fuse::{bits_to_value, value_bits, LoadKind, LoweredFunc, Mop, StoreKind};
use crate::prep::NO_PC;
use crate::trap::Trap;
use crate::value::Value;
use std::sync::Arc;
use wb_env::Charge;

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
    /// instruction under `reference_exec`. Both enter the same regions.
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
        let (code, heads, regions) = (&lowered.code, &lowered.heads, &lowered.regions);
        let fuel = self.config.limits.fuel_budget();
        let mut pc = 0usize;
        // This function's row of region counters in its current band.
        let mut row = self.region_row(def_index, lowered);

        macro_rules! pop {
            () => {
                stack.pop().expect("validated: operand present")
            };
        }
        // Enter the region headed at `$pc`: count it and spend its fuel.
        // The budget is checked first, against the regions already run,
        // so the run stops at the first head past an overrun.
        macro_rules! enter {
            ($pc:expr) => {{
                if self.steps > fuel {
                    return Err(Trap::StepBudgetExhausted);
                }
                let region = heads[$pc] as usize;
                self.steps += u64::from(regions.steps(region));
                self.counters.enter(row, region);
            }};
        }
        // A fall-through that may reach a region head (`end`, `loop`).
        macro_rules! fall_through {
            () => {
                if heads[pc + 1] != NO_PC {
                    enter!(pc + 1);
                }
            };
        }
        // An instruction that may trap inside its region: on a trap,
        // charge the region only through the trapping instruction.
        macro_rules! trapping {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(trap) => {
                        self.settle_trap(def_index, lowered, pc, row);
                        return Err(trap);
                    }
                }
            };
        }
        macro_rules! branch_to {
            ($d:expr) => {{
                let (target, back_edge) =
                    Self::take_branch(self, &mut ctrl, &mut stack, $d, def_index);
                if back_edge {
                    row = self.region_row(def_index, lowered);
                }
                pc = target;
                enter!(pc);
                continue;
            }};
        }
        // Continue after a taken-or-not conditional branch.
        macro_rules! br_if {
            ($cond:expr, $d:expr) => {{
                if $cond != 0 {
                    branch_to!($d);
                }
                pc += 1;
                enter!(pc);
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

        enter!(0);
        loop {
            match &code[pc] {
                // ---- singleton control ---------------------------------
                Mop::Unreachable => return Err(Trap::Unreachable),
                Mop::Nop => {}
                Mop::Block { after_end, arity } => {
                    ctrl.push(FCtrl {
                        restart: 0,
                        after_end: *after_end,
                        height: stack.len(),
                        arity: *arity as usize,
                        is_loop: false,
                    });
                }
                Mop::Loop { after_end } => {
                    ctrl.push(FCtrl {
                        restart: (pc + 1) as u32,
                        after_end: *after_end,
                        height: stack.len(),
                        arity: 0,
                        is_loop: true,
                    });
                    fall_through!();
                }
                Mop::If {
                    after_end,
                    else_skip,
                    arity,
                } => {
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
                    } else {
                        pc += 1;
                    }
                    enter!(pc);
                    continue;
                }
                Mop::Else => {
                    // Reached at the end of a then-arm: jump past the end.
                    let frame = ctrl.pop().expect("validated: else inside if");
                    pc = frame.after_end as usize;
                    enter!(pc);
                    continue;
                }
                Mop::End => match ctrl.pop() {
                    Some(_frame) => fall_through!(),
                    None => ret!(),
                },
                Mop::Br(d) => branch_to!(*d),
                Mop::BrIf(d) => {
                    let cond = pop!() as u32;
                    br_if!(cond, *d);
                }
                Mop::BrTable(targets, default) => {
                    let idx = (pop!() as u32 as i32) as usize;
                    let d = *targets.get(idx).unwrap_or(default);
                    branch_to!(d);
                }
                Mop::Return => ret!(),
                Mop::Call(f) => {
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
                    row = self.region_row(def_index, lowered);
                    pc += 1;
                    enter!(pc);
                    continue;
                }
                Mop::CallIndirect(type_index) => {
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
                    row = self.region_row(def_index, lowered);
                    pc += 1;
                    enter!(pc);
                    continue;
                }

                // ---- singleton data ops --------------------------------
                Mop::Drop => {
                    pop!();
                }
                Mop::Select => {
                    let cond = pop!() as u32;
                    let b = pop!();
                    let a = pop!();
                    stack.push(if cond != 0 { a } else { b });
                }
                Mop::LocalGet(i) => stack.push(locals[*i as usize]),
                Mop::LocalSet(i) => locals[*i as usize] = pop!(),
                Mop::LocalTee(i) => locals[*i as usize] = *stack.last().expect("validated"),
                Mop::GlobalGet(i) => stack.push(value_bits(self.globals[*i as usize])),
                Mop::GlobalSet { idx, ty } => {
                    self.globals[*idx as usize] = bits_to_value(*ty, pop!());
                }
                Mop::Load { kind, offset } => {
                    let addr = (pop!() as u32 as u64) + offset;
                    let v = trapping!(self.load_u64(*kind, addr));
                    stack.push(v);
                }
                Mop::Store { kind, offset } => {
                    let v = pop!();
                    let addr = (pop!() as u32 as u64) + offset;
                    trapping!(self.store_u64(*kind, addr, v));
                }
                Mop::MemorySize => {
                    let pages = self.memory.as_ref().map(|m| m.size_pages()).unwrap_or(0);
                    stack.push(u64::from(pages));
                }
                Mop::MemoryGrow => {
                    let delta = pop!() as u32;
                    trapping!(self.check_grow_limit(delta));
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
                Mop::Const(c) => stack.push(*c),
                Mop::Un(un) => {
                    let a = pop!();
                    stack.push(trapping!(un.apply(a)));
                }
                Mop::Bin(op) => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(trapping!(op.apply(a, b)));
                }

                // ---- fused superinstructions ---------------------------
                Mop::LLBin { a, b, op } => {
                    let r = trapping!(op.apply(locals[*a as usize], locals[*b as usize]));
                    stack.push(r);
                }
                Mop::LLBinSet { a, b, dst, op } => {
                    let r = trapping!(op.apply(locals[*a as usize], locals[*b as usize]));
                    locals[*dst as usize] = r;
                }
                Mop::LCBin { a, c, op } => {
                    let r = trapping!(op.apply(locals[*a as usize], *c));
                    stack.push(r);
                }
                Mop::LCBinSet { a, c, dst, op } => {
                    let r = trapping!(op.apply(locals[*a as usize], *c));
                    locals[*dst as usize] = r;
                }
                Mop::LBin { b, op } => {
                    let a = pop!();
                    stack.push(trapping!(op.apply(a, locals[*b as usize])));
                }
                Mop::CBin { c, op } => {
                    let a = pop!();
                    stack.push(trapping!(op.apply(a, *c)));
                }
                Mop::CBinSet { c, dst, op } => {
                    let a = pop!();
                    locals[*dst as usize] = trapping!(op.apply(a, *c));
                }
                Mop::BinSet { dst, op } => {
                    let b = pop!();
                    let a = pop!();
                    locals[*dst as usize] = trapping!(op.apply(a, b));
                }
                Mop::LConst { c, dst } => locals[*dst as usize] = *c,
                Mop::LocalCopy { src, dst } => locals[*dst as usize] = locals[*src as usize],
                Mop::LLCmpBr { a, b, op, depth } => {
                    let cond = trapping!(op.apply(locals[*a as usize], locals[*b as usize]));
                    br_if!(cond, *depth);
                }
                Mop::LCCmpBr { a, c, op, depth } => {
                    let cond = trapping!(op.apply(locals[*a as usize], *c));
                    br_if!(cond, *depth);
                }
                Mop::CmpBr { op, depth } => {
                    let b = pop!();
                    let a = pop!();
                    let cond = trapping!(op.apply(a, b));
                    br_if!(cond, *depth);
                }
                Mop::LUnBr { a, un, depth } => {
                    let cond = trapping!(un.apply(locals[*a as usize]));
                    br_if!(cond, *depth);
                }
                Mop::UnBr { un, depth } => {
                    let a = pop!();
                    let cond = trapping!(un.apply(a));
                    br_if!(cond, *depth);
                }
                Mop::LLoad { a, kind, offset } => {
                    let addr = (locals[*a as usize] as u32 as u64) + offset;
                    let v = trapping!(self.load_u64(*kind, addr));
                    stack.push(v);
                }
                Mop::LLStore { a, b, kind, offset } => {
                    let addr = (locals[*a as usize] as u32 as u64) + offset;
                    trapping!(self.store_u64(*kind, addr, locals[*b as usize]));
                }
            }
            pc += 1;
        }
    }

    /// Offset in `self.counters` of `def_index`'s row for its current
    /// band, added on the function's first run in that band.
    fn region_row(&mut self, def_index: usize, lowered: &LoweredFunc) -> usize {
        let state = &mut self.func_state[def_index];
        let band = state.band;
        *state.row.get_or_insert_with(|| {
            self.counters
                .add_row(def_index, band, lowered.regions.len())
        })
    }

    /// Charge a region that trapped at micro-op `pc` as per-op counting
    /// would have: take back its entry (count and fuel) and charge its
    /// source instructions up to and including the one that trapped.
    #[cold]
    fn settle_trap(&mut self, def_index: usize, lowered: &LoweredFunc, pc: usize, row: usize) {
        let head = (0..=pc)
            .rev()
            .find(|&k| lowered.heads[k] != NO_PC)
            .expect("micro-op 0 heads a region");
        let region = lowered.heads[head] as usize;
        let at = lowered.regions.range(region).start
            + lowered.code[head..pc].iter().map(Mop::width).sum::<usize>();
        let prepared = Arc::clone(&self.prepared);
        let body = &prepared.module.functions[def_index].body;
        let trapped = (0..lowered.code[pc].width())
            .find(|&k| can_trap(&body[at + k]))
            .unwrap_or(0);
        let band = self.func_state[def_index].band;
        self.steps -= self.counters.settle(
            row,
            region,
            &lowered.regions,
            at + trapped + 1,
            |i| Some((classify(&body[i]), arith_kind(&body[i]))),
            &mut self.band_counts.ops[band],
            &mut self.arith,
        );
    }

    /// Perform a branch to relative depth `d`; returns the new micro-op
    /// index and whether it was a loop back-edge, which notes hotness and
    /// so may move the function's band.
    fn take_branch(
        &mut self,
        ctrl: &mut Vec<FCtrl>,
        stack: &mut Vec<u64>,
        d: u32,
        def_index: usize,
    ) -> (usize, bool) {
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
            (restart, true)
        } else {
            let arity = target.arity;
            let height = target.height;
            let after_end = target.after_end as usize;
            let keep = stack.split_off(stack.len() - arity);
            stack.truncate(height);
            stack.extend(keep);
            ctrl.truncate(target_idx);
            (after_end, false)
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
