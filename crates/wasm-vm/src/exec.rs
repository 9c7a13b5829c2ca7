//! The execution core: the one dispatch loop of the Wasm VM. It
//! interprets the [`Mop`](crate::fuse::Mop) stream produced by `fuse.rs`
//! with full MVP semantics, counting region entries per hotness band.
//!
//! **One value stack.** Every frame lives on one untagged `u64` stack
//! that the instance owns and `Instance::invoke` lends to the loop: a
//! frame is a base index, with the parameters where the caller pushed
//! them, zeroed locals above them and operands above those. A call leaves
//! its result where its arguments were, so no call allocates and bits
//! never become [`Value`](crate::Value)s inside a run; they do only at
//! invoke, the start function and host calls.
//!
//! **No control stack.** Every branch holds a [`Target`] resolved at
//! lowering: the micro-op to continue at, the stack height at its label
//! and the values it keeps (or a return, for the function's own label).
//! A branch moves its kept values down to that height, notes hotness on a
//! loop back-edge and enters the target's region. No-op control is not in
//! the stream, except as a `Fall` into a region head, and the function's
//! final `end` is a `Return`.
//!
//! The stream is fused by default and one singleton op per instruction
//! that does work under `reference_exec`; both run the same regions (see
//! `fuse.rs` `region_heads`). The arms charge nothing per op. Each control
//! arm that moves into a region (function entry, a branch, a `Fall` into
//! a branch target, the return from a call) checks the fuel budget, adds
//! the region's instruction count to the fuel spent, and adds one to the
//! region's counter in the function's current band. Reading a record
//! folds those counters times each region's class and Table 12 vector
//! (`Instance::record`); a band crossing happens only at function entry
//! and taken loop back-edges, which are region boundaries, so every
//! region is counted in the band its instructions retire in. A trap
//! inside a region takes back the region's count on the cold path and
//! charges its instructions up to and including the trapping one, which
//! it finds from the micro-op's source position, as per-op counting
//! would have. The budget is checked against the regions
//! already run, so a region that overruns it runs to its end, its call or
//! a trap, and the run then stops with `StepBudgetExhausted` (at the next
//! head, before a host call, or on the way out in `Instance::invoke`):
//! which runs run out, and which trap the others report, are per-op
//! counting's. Only the state a budget-stopped run leaves behind differs,
//! and such runs are never measured.

use crate::classify::{arith_kind, can_trap, classify};
use crate::engine::Instance;
use crate::fuse::{LoadKind, LoweredFunc, Mop, StoreKind, Target, NO_PC};
use crate::trap::Trap;
use std::sync::Arc;
use wb_env::Charge;

impl Instance {
    /// Execute `def_index` over its micro-op stream (fused, or one op per
    /// instruction under `reference_exec`; both enter the same regions)
    /// in a frame on `stack`, whose top slots hold its arguments. On
    /// return its result, if any, has replaced them.
    pub(crate) fn run_body(
        &mut self,
        def_index: usize,
        stack: &mut Vec<u64>,
        depth: usize,
    ) -> Result<(), Trap> {
        let prepared = Arc::clone(&self.prepared);
        let lowered = prepared.lowered(def_index, !self.config.reference_exec);
        let (code, heads, regions) = (&lowered.code, &lowered.heads, &lowered.regions);
        let targets = &lowered.targets;
        let base = stack.len() - lowered.params as usize;
        stack.resize(stack.len() + lowered.locals as usize, 0);
        let fuel = self.config.limits.fuel_budget();
        let mut pc = 0usize;
        // This function's row of region counters in its current band.
        let mut row = self.region_row(def_index, lowered);

        macro_rules! pop {
            () => {
                stack.pop().expect("validated: operand present")
            };
        }
        macro_rules! local {
            ($i:expr) => {
                stack[base + $i as usize]
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
        // Leave the frame with its result in place of its arguments.
        macro_rules! ret {
            () => {{
                if lowered.result {
                    let v = pop!();
                    stack.truncate(base);
                    stack.push(v);
                } else {
                    stack.truncate(base);
                }
                return Ok(());
            }};
        }
        // A conditional branch: taken, it leaves the dispatch block `$l`
        // with its target; not taken, it enters the next region.
        macro_rules! br_if {
            ($l:lifetime, $cond:expr, $t:expr) => {{
                if $cond != 0 {
                    break $l $t;
                }
                enter!(pc + 1);
            }};
        }
        // Call `$f` with its arguments on top of the stack.
        macro_rules! call {
            ($f:expr) => {{
                self.call_function($f, stack, depth + 1)?;
                // The band may have changed while we were away
                // (recursion).
                row = self.region_row(def_index, lowered);
                enter!(pc + 1);
            }};
        }

        enter!(0);
        'run: loop {
            // A taken branch leaves this block with its target's index.
            let taken = 'dispatch: {
                match &code[pc] {
                    // ---- singleton control ---------------------------------
                    Mop::Unreachable => return Err(Trap::Unreachable),
                    Mop::Fall => enter!(pc + 1),
                    Mop::If(t) => {
                        if pop!() as u32 == 0 {
                            pc = targets[*t as usize].pc as usize;
                        } else {
                            pc += 1;
                        }
                        enter!(pc);
                        continue 'run;
                    }
                    Mop::Else(t) => {
                        pc = targets[*t as usize].pc as usize;
                        enter!(pc);
                        continue 'run;
                    }
                    Mop::Br(t) => break 'dispatch *t,
                    Mop::BrIf(t) => {
                        let cond = pop!() as u32;
                        br_if!('dispatch, cond, *t);
                    }
                    Mop::BrTable(first, arms) => {
                        break 'dispatch *first + (pop!() as u32).min(*arms)
                    }
                    Mop::Return => ret!(),
                    Mop::Call(f) => call!(*f),
                    Mop::CallIndirect(type_index) => {
                        let slot = pop!() as u32 as usize;
                        let entry = self.table.get(slot).ok_or(Trap::TableOutOfBounds)?;
                        let target = entry.ok_or(Trap::UninitializedElement)?;
                        let module = &prepared.module;
                        let actual_ty =
                            module.func_type(target).ok_or(Trap::UninitializedElement)?;
                        if actual_ty != &module.types[*type_index as usize] {
                            return Err(Trap::IndirectCallTypeMismatch);
                        }
                        call!(target)
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
                    Mop::LocalGet(i) => stack.push(local!(*i)),
                    Mop::LocalSet(i) => local!(*i) = pop!(),
                    Mop::LocalTee(i) => local!(*i) = *stack.last().expect("validated"),
                    Mop::GlobalGet(i) => stack.push(self.globals[*i as usize]),
                    Mop::GlobalSet(i) => self.globals[*i as usize] = pop!(),
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
                        let r = trapping!(op.apply(local!(*a), local!(*b)));
                        stack.push(r);
                    }
                    Mop::LLBinSet { a, b, dst, op } => {
                        let r = trapping!(op.apply(local!(*a), local!(*b)));
                        local!(*dst) = r;
                    }
                    Mop::LCBin { a, c, op } => {
                        let r = trapping!(op.apply(local!(*a), *c));
                        stack.push(r);
                    }
                    Mop::LCBinSet { a, c, dst, op } => {
                        let r = trapping!(op.apply(local!(*a), *c));
                        local!(*dst) = r;
                    }
                    Mop::LBin { b, op } => {
                        let a = pop!();
                        stack.push(trapping!(op.apply(a, local!(*b))));
                    }
                    Mop::CBin { c, op } => {
                        let a = pop!();
                        stack.push(trapping!(op.apply(a, *c)));
                    }
                    Mop::CBinSet { c, dst, op } => {
                        let a = pop!();
                        local!(*dst) = trapping!(op.apply(a, *c));
                    }
                    Mop::BinSet { dst, op } => {
                        let b = pop!();
                        let a = pop!();
                        local!(*dst) = trapping!(op.apply(a, b));
                    }
                    Mop::LConst { c, dst } => local!(*dst) = *c,
                    Mop::LocalCopy { src, dst } => local!(*dst) = local!(*src),
                    Mop::UnBr { un, target } => {
                        let a = pop!();
                        let cond = trapping!(un.apply(a));
                        br_if!('dispatch, cond, *target);
                    }
                    Mop::LLoad { a, kind, offset } => {
                        let addr = (local!(*a) as u32 as u64) + offset;
                        let v = trapping!(self.load_u64(*kind, addr));
                        stack.push(v);
                    }
                }
                pc += 1;
                continue 'run;
            };
            // Take the branch: keep its values at the label's height.
            let Target {
                pc: to,
                height,
                keep,
                back_edge,
            } = targets[taken as usize];
            if to == NO_PC {
                ret!();
            }
            let (height, keep) = (base + height as usize, keep as usize);
            if keep != 0 {
                let top = stack.len();
                stack.copy_within(top - keep..top, height);
            }
            stack.truncate(height + keep);
            if back_edge {
                // Loop hotness moves the band (tier-up is OSR-style).
                self.note_hotness(def_index, 1);
                row = self.region_row(def_index, lowered);
            }
            pc = to as usize;
            enter!(pc);
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
    /// source instructions up to and including the one that trapped, the
    /// first that can trap from the micro-op's source position on.
    #[cold]
    fn settle_trap(&mut self, def_index: usize, lowered: &LoweredFunc, pc: usize, row: usize) {
        let prepared = Arc::clone(&self.prepared);
        let body = &prepared.module.functions[def_index].body;
        let at = lowered.pos[pc] as usize;
        let next = lowered.pos.get(pc + 1).map_or(body.len(), |&p| p as usize);
        let trapped = (at..next).find(|&i| can_trap(&body[i])).unwrap_or(at);
        let band = self.func_state[def_index].band;
        self.steps -= self.counters.settle(
            row,
            lowered.regions.region_at(at),
            &lowered.regions,
            trapped + 1,
            |i| Some((classify(&body[i]), arith_kind(&body[i]))),
            &mut self.band_counts.ops[band],
            &mut self.arith,
        );
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
