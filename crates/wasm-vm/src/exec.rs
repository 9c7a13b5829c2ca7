//! The execution core: the one dispatch loop of the Wasm VM. It
//! interprets the [`Mop`](crate::fuse::Mop) stream produced by `fuse.rs`
//! with full MVP semantics, counting region entries per hotness band.
//!
//! **One value stack, no pushes.** Every frame lives on one untagged
//! `u64` stack that the instance owns and `Instance::invoke` lends to the
//! loop: a frame is a base index, with the parameters where the caller
//! left them and the rest of the frame (zeroed locals, the function's
//! constants, a zeroed slot per operand height) copied in from
//! `LoweredFunc::frame_init` at entry. Each micro-op reads and writes
//! frame slots by index, so nothing is pushed or popped inside a run. A
//! call's frame starts at its argument slots, and the callee returns its
//! result in the first of them; no call allocates once the stack has
//! grown, and bits never become [`Value`](crate::Value)s inside a run;
//! they do only at invoke, the start function and host calls.
//!
//! **No control stack.** Every branch holds a [`Target`] resolved at
//! lowering: the micro-op to continue at, the slot of the value it
//! carries and the slot at its label's height (or a return, for the
//! function's own label). A branch copies its carried value to its label,
//! notes hotness on a loop back-edge and enters the target's region.
//! No-op control is not in the stream, except as a `Fall` into a region
//! head, and the function's final `end` is a `Return`.
//!
//! The stream reads operands in place by default and holds one micro-op
//! per instruction that does work under `reference_exec`; both run the
//! same regions (see `fuse.rs` `region_heads`). The arms charge nothing
//! per op. Each control arm that moves into a region (function entry, a
//! branch, a `Fall` into a branch target, the return from a call) checks
//! the fuel budget, adds the region's instruction count to the fuel
//! spent, and adds one to the region's counter in the function's current
//! band. Reading a record folds those counters times each region's class
//! and Table 12 vector (`Instance::record`); a band crossing happens only
//! at function entry and taken loop back-edges, which are region
//! boundaries, so every region is counted in the band its instructions
//! retire in. A trap inside a region takes back the region's count on the
//! cold path and charges its instructions up to and including the
//! trapping one, the micro-op's source position, as per-op counting would
//! have. The budget is checked against the regions already run, so a
//! region that overruns it runs to its end, its call or a trap, and the
//! run then stops with `StepBudgetExhausted` (at the next head, before a
//! host call, or on the way out in `Instance::invoke`): which runs run
//! out, and which trap the others report, are per-op counting's. Only the
//! state a budget-stopped run leaves behind differs, and such runs are
//! never measured.

use crate::classify::{arith_kind, classify};
use crate::engine::Instance;
use crate::fuse::{LoadKind, LoweredFunc, Mop, StoreKind, Target, NO_PC};
use crate::trap::Trap;
use std::sync::Arc;
use wb_env::Charge;

impl Instance {
    /// Execute `def_index` over its micro-op stream (fused, or one op per
    /// instruction under `reference_exec`; both enter the same regions)
    /// in a frame on `stack`, whose top slots hold its arguments. On
    /// return its result, if any, is in the first argument's slot.
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
        stack.extend_from_slice(&lowered.frame_init);
        let top = stack.len();
        let fuel = self.config.limits.fuel_budget();
        let mut pc = 0usize;
        // This function's row of region counters in its current band.
        let mut row = self.region_row(def_index, lowered);

        macro_rules! slot {
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
        // Leave the frame with its result, from slot `$src`, in the slot
        // of its first argument.
        macro_rules! ret {
            ($src:expr) => {{
                if lowered.result {
                    stack[base] = slot!($src);
                }
                return Ok(());
            }};
        }
        // Call `$f` with its arguments in the slots below `$end`: its
        // frame starts at them.
        macro_rules! call {
            ($f:expr, $end:expr) => {{
                stack.truncate(base + $end as usize);
                self.call_function($f, stack, depth + 1)?;
                stack.resize(top, 0);
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
                match code[pc] {
                    Mop::Copy { src, dst } => slot!(dst) = slot!(src),
                    Mop::Bin { op, a, b, dst } => {
                        slot!(dst) = trapping!(op.apply(slot!(a), slot!(b)));
                    }
                    Mop::Un { op, a, dst } => slot!(dst) = trapping!(op.apply(slot!(a))),
                    Mop::Load {
                        kind,
                        addr,
                        offset,
                        dst,
                    } => {
                        let addr = u64::from(slot!(addr) as u32) + u64::from(offset);
                        slot!(dst) = trapping!(self.load_u64(kind, addr));
                    }
                    Mop::Store {
                        kind,
                        addr,
                        val,
                        offset,
                    } => {
                        let addr = u64::from(slot!(addr) as u32) + u64::from(offset);
                        trapping!(self.store_u64(kind, addr, slot!(val)));
                    }
                    Mop::Select { dst, b, cond } => {
                        if slot!(cond) as u32 == 0 {
                            slot!(dst) = slot!(b);
                        }
                    }
                    Mop::GlobalGet { global, dst } => slot!(dst) = self.globals[global as usize],
                    Mop::GlobalSet { global, src } => self.globals[global as usize] = slot!(src),
                    Mop::MemorySize { dst } => {
                        let pages = self.memory.as_ref().map(|m| m.size_pages()).unwrap_or(0);
                        slot!(dst) = u64::from(pages);
                    }
                    Mop::MemoryGrow { delta, dst } => {
                        let delta = slot!(delta) as u32;
                        trapping!(self.check_grow_limit(delta));
                        let result = self.memory.as_mut().map_or(-1, |mem| mem.grow(delta));
                        if result >= 0 {
                            self.charge(Charge::MemoryGrow {
                                pages: u64::from(delta),
                            });
                        }
                        slot!(dst) = result as u32 as u64;
                    }
                    Mop::Br(t) => break 'dispatch t,
                    Mop::BrIf {
                        cond,
                        when_zero,
                        target,
                    } => {
                        if (slot!(cond) as u32 == 0) == when_zero {
                            break 'dispatch target;
                        }
                        enter!(pc + 1);
                    }
                    Mop::BrTable { index, first, arms } => {
                        break 'dispatch first + (slot!(index) as u32).min(arms)
                    }
                    Mop::Call { func, end } => call!(func, end),
                    Mop::CallIndirect {
                        type_index,
                        index,
                        end,
                    } => {
                        let entry = self.table.get(slot!(index) as u32 as usize);
                        let target = entry
                            .ok_or(Trap::TableOutOfBounds)?
                            .ok_or(Trap::UninitializedElement)?;
                        let module = &prepared.module;
                        let actual_ty =
                            module.func_type(target).ok_or(Trap::UninitializedElement)?;
                        if actual_ty != &module.types[type_index as usize] {
                            return Err(Trap::IndirectCallTypeMismatch);
                        }
                        call!(target, end)
                    }
                    Mop::Return(src) => ret!(src),
                    Mop::Fall => enter!(pc + 1),
                    Mop::Unreachable => return Err(Trap::Unreachable),
                }
                pc += 1;
                continue 'run;
            };
            // Take the branch: carry its value to the label's height.
            let Target {
                pc: to,
                src,
                dst,
                keep,
                back_edge,
            } = targets[taken as usize];
            if to == NO_PC {
                ret!(src);
            }
            if keep {
                slot!(dst) = slot!(src);
            }
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
    /// micro-op's source position.
    #[cold]
    fn settle_trap(&mut self, def_index: usize, lowered: &LoweredFunc, pc: usize, row: usize) {
        let prepared = Arc::clone(&self.prepared);
        let body = &prepared.module.functions[def_index].body;
        let trapped = lowered.pos[pc] as usize;
        let band = self.func_state[def_index].band;
        self.steps -= self.counters.settle(
            row,
            lowered.regions.region_at(trapped),
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
