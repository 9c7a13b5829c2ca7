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
//! **One dispatch per micro-op.** Every operator and every memory access
//! kind is a micro-op of its own, and `run_body` expands one arm per
//! entry of the operator list (`fuse.rs` `operators!`) into the loop's
//! one `match code[pc]`, beside the control arms: the arm binds the
//! entry's operands from their slots and runs its expression, so nothing
//! dispatches on an operator or an access kind a second time. An operator
//! that cannot trap writes its slot with no `Result`; one marked `traps`,
//! and every access, takes its trap through `trapping!` on the cold path.
//! An access adds its static offset to the address (no wrap at 32 bits)
//! and reads or writes its `N` bytes in place with the inlined
//! `LinearMemory::load`/`store`, checked against the memory's current
//! length on every access, so a page grown in the same run, by this
//! frame or a callee, is in bounds at once.
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
use crate::fuse::{operators, LoweredFunc, Mop, Target, NO_PC};
// The operator list's expressions expand in this file's dispatch loop,
// and name these helpers.
use crate::fuse::{b_f32, b_f64, b_i32, u_f32, u_f64, u_i32};
use crate::interp::{trunc_to_i32, trunc_to_i64, trunc_to_u32, trunc_to_u64, wasm_max, wasm_min};
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

        // An operator's result: its value, or, for an entry marked
        // `traps`, its `Ok` value, with the trap taken on the cold path.
        macro_rules! result {
            (traps $e:expr) => {
                trapping!($e)
            };
            ($e:expr) => {
                $e
            };
        }
        // The effective address of an access: the address operand in
        // slot `$addr` plus the static offset, which does not wrap.
        macro_rules! address {
            ($addr:expr, $offset:expr) => {
                u64::from(slot!($addr) as u32) + u64::from($offset)
            };
        }
        // The dispatch loop, given the operator list (`fuse.rs`
        // `operators!`): one arm per micro-op, the control arms written
        // here and one per list entry, which binds the entry's operands
        // and runs its expression.
        macro_rules! run {
            (
                BinOp { $($bin:ident($a:ident, $b:ident) $($bt:ident)? => $be:expr,)* }
                UnOp { $($un:ident($u:ident) $($ut:ident)? => $ue:expr,)* }
                LoadKind { $($_load:ident = $li:ident($lv:ident: $lt:ty) => $le:expr,)* }
                StoreKind { $($_store:ident = $si:ident($sv:ident) => $se:expr,)* }
            ) => {
                'run: loop {
                    // A taken branch leaves this block with its target's
                    // index.
                    let taken = 'dispatch: {
                        match code[pc] {
                            Mop::Copy { src, dst } => slot!(dst) = slot!(src),
                            $(Mop::$bin { a, b, dst } => {
                                let ($a, $b) = (slot!(a), slot!(b));
                                slot!(dst) = result!($($bt)? $be);
                            })*
                            $(Mop::$un { a, dst } => {
                                let $u = slot!(a);
                                slot!(dst) = result!($($ut)? $ue);
                            })*
                            $(Mop::$li { addr, offset, dst } => {
                                let at = address!(addr, offset);
                                let $lv = <$lt>::from_le_bytes(trapping!(self.load(at)));
                                slot!(dst) = $le;
                            })*
                            $(Mop::$si { addr, val, offset } => {
                                let at = address!(addr, offset);
                                let $sv = slot!(val);
                                trapping!(self.store(at, ($se).to_le_bytes()));
                            })*
                            Mop::Select { dst, b, cond } => {
                                if slot!(cond) as u32 == 0 {
                                    slot!(dst) = slot!(b);
                                }
                            }
                            Mop::GlobalGet { global, dst } => {
                                slot!(dst) = self.globals[global as usize]
                            }
                            Mop::GlobalSet { global, src } => {
                                self.globals[global as usize] = slot!(src)
                            }
                            Mop::MemorySize { dst } => {
                                let pages =
                                    self.memory.as_ref().map(|m| m.size_pages()).unwrap_or(0);
                                slot!(dst) = u64::from(pages);
                            }
                            Mop::MemoryGrow { delta, dst } => {
                                let delta = slot!(delta) as u32;
                                trapping!(self.check_grow_limit(delta));
                                let result =
                                    self.memory.as_mut().map_or(-1, |mem| mem.grow(delta));
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
                    // Take the branch: carry its value to the label's
                    // height.
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
                        // Loop hotness moves the band (tier-up is
                        // OSR-style).
                        self.note_hotness(def_index, 1);
                        row = self.region_row(def_index, lowered);
                    }
                    pc = to as usize;
                    enter!(pc);
                }
            };
        }

        enter!(0);
        operators!(run)
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

    /// The `N` bytes at effective address `addr`, read in place; out of
    /// bounds, a trap with the address and the width.
    #[inline(always)]
    fn load<const N: usize>(&self, addr: u64) -> Result<[u8; N], Trap> {
        (self.memory.as_ref())
            .and_then(|mem| mem.load(addr).ok())
            .ok_or(Trap::MemoryOutOfBounds {
                addr,
                width: N as u32,
            })
    }

    /// Write `bytes` at effective address `addr`; out of bounds, a trap
    /// with the address and the width, and memory is left as it was.
    #[inline(always)]
    fn store<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) -> Result<(), Trap> {
        (self.memory.as_mut())
            .and_then(|mem| mem.store(addr, bytes).ok())
            .ok_or(Trap::MemoryOutOfBounds {
                addr,
                width: N as u32,
            })
    }
}
