//! The MiniJS virtual machine: the dispatch loop over each chunk's
//! micro-op stream, hotness bands, GC scheduling and the unpriced record
//! of a run ([`JsRecord`]), which `wb_env::price` turns into virtual
//! time, choosing the interpreter and JIT tiers as it goes.
//!
//! At load, every chunk is lowered once into one stream of micro-ops
//! (`fuse.rs` `lower`), fused or not (`reference_exec`); the one loop
//! runs either, and never reads the setting. The loop charges per
//! region, not per op. Each chunk is cut into regions (`fuse.rs`
//! `region_heads`): runs of ops entered only at their head and left only
//! at their end. A region is entered only where control moves into it:
//! at frame entry and resume, by a taken jump, a branch not taken, a
//! method call that returns a value, a fused form's exit, and an `Enter`
//! micro-op before each head a plain op falls through into. Every entry
//! goes through one macro: it runs the GC safe point, checks the fuel
//! budget, spends the region's op count and adds one to the region's
//! counter in the chunk's current band (the counters are a
//! `wb_env::RegionCounters`). The budget is checked against the regions
//! already run, so a region that overruns it runs to its end, its call or
//! an error, and the run then stops with `StepBudgetExhausted` (at the
//! next head, before a method call, or on the way out in `run`): which
//! runs run out, and which error the others report, are per-op
//! counting's. A fused form enters the regions its plain copies would
//! enter on the path its comparison took, one entry each. The
//! class and Table 12 counts of a region are folded in only when a record
//! is read ([`JsVm::record`], and `performance.now`, which prices
//! mid-run): a band changes only at chunk entry and loop back-edges,
//! which are region boundaries, so every counter belongs to one band.
//! What stays per op is what depends on a value: an index access counts
//! by its receiver's typedness (`count_index`), a `Math.*` call counts as
//! native code, and allocation, GC and every other `Charge` event are
//! recorded as they happen. An op that fails inside its region takes back
//! the region's count on the cold path and charges the ops up to and
//! including itself, which it finds from its micro-op's source position
//! (`settle_trap`), so a failed run's record is the one per-op counting
//! gives.

use crate::bytecode::{Const, Program};
use crate::error::JsError;
use crate::fuse::{lower, static_charge, CmpKind, LoweredChunk, Mop};
use crate::heap::{Heap, HeapStats, Obj};
use crate::stdlib::{sha256, DetRng};
use crate::value::{format_number, string_to_number, Builtin, JsValue, Value};
use std::collections::HashMap;
use std::rc::Rc;
use wb_env::{
    ArithCounts, BandCounts, Bands, Charge, ChargeRecord, EnginePrices, JitMode, JsEngineProfile,
    Nanos, OpClass, OpCounts, PriceList, RegionCounters, RegionHits, Tiering, VirtualClock,
};

/// Configuration of one JS VM.
#[derive(Debug, Clone)]
pub struct JsVmConfig {
    /// Engine parameters (parse/compile/tier/GC costs).
    pub profile: JsEngineProfile,
    /// Whether the optimizing JIT is enabled (`--no-opt` disables it).
    pub jit: JitMode,
    /// Nanoseconds per abstract cycle (platform speed).
    pub cycle_time_ns: f64,
    /// Resource ceilings: fuel (retired-op budget →
    /// [`JsError::StepBudgetExhausted`]), heap ceiling
    /// ([`JsError::MemoryLimitExceeded`], checked at the GC safe point)
    /// and frame depth ([`JsError::StackOverflow`]). Limits are checked
    /// on existing virtual-cost events and never add charges, so
    /// default-limit runs are bit-identical to unlimited ones.
    pub limits: wb_env::ResourceLimits,
    /// Lower every chunk without fused forms: one micro-op per bytecode
    /// op, run by the same dispatch loop, which never reads this flag.
    /// Both streams enter the same regions and produce bit-identical
    /// measurements; this is a debugging escape hatch for fusion
    /// regressions (`--reference-exec` in the harness).
    pub reference_exec: bool,
}

impl JsVmConfig {
    /// A standalone default suitable for unit tests.
    pub fn reference() -> Self {
        JsVmConfig {
            profile: JsEngineProfile::reference(),
            jit: JitMode::Enabled,
            cycle_time_ns: wb_env::calibration::DESKTOP_CYCLE_NS,
            limits: wb_env::ResourceLimits::default(),
            reference_exec: false,
        }
    }

    /// Derive a config from an environment profile.
    pub fn for_env(env: &wb_env::EnvProfile) -> Self {
        JsVmConfig {
            profile: env.js,
            jit: JitMode::Enabled,
            cycle_time_ns: env.cycle_time_ns,
            limits: wb_env::ResourceLimits::default(),
            reference_exec: false,
        }
    }

    /// The part of this config that execution reads (see
    /// `JsVm::note_hotness`); everything else only prices the run.
    pub fn projection(&self) -> JsExecProjection {
        JsExecProjection {
            limits: self.limits,
            reference_exec: self.reference_exec,
            bands: Bands::js(self.profile.jit_threshold),
            gc_trigger_bytes: self.profile.gc.trigger_bytes,
        }
    }

    /// The price side of this config: the JIT mode and threshold choose
    /// the tiers here, not during execution.
    pub(crate) fn prices(&self) -> PriceList<'_> {
        PriceList {
            engine: EnginePrices::Js(&self.profile),
            cycle_time_ns: self.cycle_time_ns,
            exec_overhead: 1.0,
            tiering: match self.jit {
                JitMode::Enabled => Tiering::TierUp {
                    threshold: self.profile.jit_threshold,
                },
                JitMode::Disabled => Tiering::LowerOnly,
            },
        }
    }
}

/// What execution reads of a [`JsVmConfig`]: two configs with equal
/// projections execute a script identically and differ only in price.
/// The JIT mode and threshold are not part of it: a run records hotness
/// bands, and pricing turns them into interpreter and JIT tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JsExecProjection {
    /// Resource ceilings.
    pub limits: wb_env::ResourceLimits,
    /// Chunks lowered without fused forms.
    pub reference_exec: bool,
    /// The hotness boundaries the run's op counts are banded by: every
    /// calibrated JIT threshold plus the config's own.
    pub bands: Bands,
    /// Allocation volume that triggers a collection.
    pub gc_trigger_bytes: u64,
}

/// Per-chunk hotness state.
#[derive(Debug, Clone, Copy)]
struct HotState {
    /// Boundaries of the VM's bands the hotness has reached.
    band: usize,
    hotness: u64,
    /// The chunk's row of region counters in `JsVm::counters` for its
    /// current band, once it has run in it.
    row: Option<usize>,
}

struct Frame {
    chunk: u32,
    /// The micro-op the frame starts or resumes at: a region head.
    pc: usize,
    locals_base: usize,
}

/// Everything a JS execution did, unpriced and untiered: its discrete
/// events in order and its retired operations per hotness band.
/// [`JsRecord::price`] turns it into a [`JsReport`] for any price list,
/// JIT mode and JIT threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct JsRecord {
    /// Discrete events (parse, compile, allocation, GC, band crossing,
    /// hashing) in order.
    pub charges: ChargeRecord,
    /// Retired ops per hotness band, typed-array accesses apart, plus
    /// the `Math.*` ops no band affects; pricing sums them into
    /// `[interpreter, JIT, JIT typed-array accesses]` tier counts.
    pub band_counts: BandCounts,
    /// Heap statistics (live/peak/external bytes, GC count).
    pub heap: HeapStats,
    /// Fine-grained arithmetic profile (Table 12).
    pub arith: ArithCounts,
    /// Compiled bytecode size (op count).
    pub code_ops: usize,
    /// `performance.now()` calls. A run that read the clock may have
    /// acted on its price, so its record holds for its own price list
    /// only.
    pub clock_reads: u64,
}

impl JsRecord {
    /// Price this record with `config`'s engine profile, cycle time, JIT
    /// mode and JIT threshold.
    pub fn price(&self, config: &JsVmConfig) -> JsReport {
        let priced = wb_env::price(&config.prices(), &self.charges, &self.band_counts);
        let [interp, jit, ta] = &priced.tiers;
        JsReport {
            total: priced.clock.now(),
            clock: priced.clock,
            counts: interp.merged(jit).merged(ta),
            interp_counts: *interp,
            heap: self.heap,
            arith: self.arith,
            jit_compiles: priced.tier_ups,
            code_ops: self.code_ops,
        }
    }
}

/// Everything measured about a JS execution.
#[derive(Debug, Clone)]
pub struct JsReport {
    /// Total virtual time (parse + compile + exec + GC + JIT).
    pub total: Nanos,
    /// Time attribution breakdown.
    pub clock: VirtualClock,
    /// Retired ops by class, across tiers.
    pub counts: OpCounts,
    /// Ops retired in the interpreter tier only.
    pub interp_counts: OpCounts,
    /// Heap statistics (live/peak/external bytes, GC count).
    pub heap: HeapStats,
    /// Fine-grained arithmetic profile (Table 12).
    pub arith: ArithCounts,
    /// Functions JIT-compiled.
    pub jit_compiles: u32,
    /// Compiled bytecode size (op count) — the JS "code size" proxy.
    pub code_ops: usize,
}

/// The MiniJS virtual machine.
pub struct JsVm {
    config: JsVmConfig,
    program: Rc<Program>,
    name_index: HashMap<String, u32>,
    globals: Vec<Option<Value>>,
    heap: Heap,
    stack: Vec<Value>,
    locals: Vec<Value>,
    frames: Vec<Frame>,
    chunk_state: Vec<HotState>,
    /// Region entries per chunk, band and region.
    counters: RegionCounters,
    /// Op counts per hotness band, over the boundaries of
    /// [`JsExecProjection::bands`], that no region counter holds: index
    /// accesses, typed-array ones apart (the JIT prices them at the
    /// better `jit_typed_array_multiplier`); `Math.*` calls, native code
    /// priced at the JIT tier whatever the band or JIT mode, in
    /// `native`; and the charged part of a region an op failed in.
    band_counts: BandCounts,
    /// Table 12 counts no region counter holds, in
    /// [`ArithCounts::columns`] order.
    arith: [u64; 7],
    charges: ChargeRecord,
    clock_reads: u64,
    steps: u64,
    rng: DetRng,
    /// Each chunk lowered to micro-ops (see `fuse.rs`) at load time.
    lowered: Rc<Vec<LoweredChunk>>,
    /// Fused index forms (`[served, fell back]`).
    fused_index: [u64; 2],
    /// Fused forms served, and the ops they retired: every other op
    /// retired was one plain dispatch.
    fused_runs: [u64; 2],
    /// `console.log` output.
    pub output: Vec<String>,
}

impl JsVm {
    /// Create a VM with no script loaded.
    pub fn new(config: JsVmConfig) -> Self {
        JsVm {
            counters: RegionCounters::default(),
            band_counts: BandCounts::new(config.projection().bands),
            config,
            program: Rc::new(Program::default()),
            name_index: HashMap::new(),
            globals: Vec::new(),
            heap: Heap::new(),
            stack: Vec::new(),
            locals: Vec::new(),
            frames: Vec::new(),
            chunk_state: Vec::new(),
            arith: [0; 7],
            charges: ChargeRecord::new(),
            clock_reads: 0,
            steps: 0,
            rng: DetRng::default(),
            lowered: Rc::new(Vec::new()),
            fused_index: [0; 2],
            fused_runs: [0; 2],
            output: Vec::new(),
        }
    }

    /// Parse, compile and run a script's top level. Charges parse time per
    /// source byte and bytecode-compile time per op (§2.2.1).
    pub fn load(&mut self, source: &str) -> Result<(), JsError> {
        let program = crate::compile_script(source)?;
        self.charges.push(Charge::JsParse {
            bytes: source.len() as u64,
        });
        self.charges.push(Charge::JsBytecode {
            ops: program.op_count() as u64,
        });
        self.name_index = program
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        self.globals = vec![None; program.names.len()];
        // Bind host globals wherever the script references them.
        for (name, builtin) in [
            ("Math", Builtin::Math),
            ("console", Builtin::Console),
            ("performance", Builtin::Performance),
            ("crypto", Builtin::Crypto),
            ("String", Builtin::StringCls),
            ("Number", Builtin::NumberCls),
            ("__wb", Builtin::WbHarness),
        ] {
            if let Some(&idx) = self.name_index.get(name) {
                self.globals[idx as usize] = Some(Value::Builtin(builtin));
            }
        }
        for (name, v) in [("NaN", f64::NAN), ("Infinity", f64::INFINITY)] {
            if let Some(&idx) = self.name_index.get(name) {
                self.globals[idx as usize] = Some(Value::Num(v));
            }
        }
        // Lower every chunk. Pure derived data with no virtual-time
        // charge: fusion models no engine work, and the reference and
        // fused streams charge identically.
        let fuse = !self.config.reference_exec;
        let lowered: Vec<_> = program.chunks.iter().map(|c| lower(c, fuse)).collect();
        // The counters of an earlier script fold into the counts kept
        // per op before its regions go.
        std::mem::take(&mut self.counters).fold(
            |c| &self.lowered[c].regions,
            &mut self.band_counts.ops,
            &mut self.arith,
        );
        self.chunk_state = vec![
            HotState {
                band: 0,
                hotness: 0,
                row: None,
            };
            lowered.len()
        ];
        self.lowered = Rc::new(lowered);
        self.program = Rc::new(program);
        // Run the top level (chunk 0), as a call with no arguments.
        self.invoke(0, &[])?;
        // The top level returns `undefined`: drop it.
        self.stack.pop();
        Ok(())
    }

    /// Call a global function by name (the embedder API the harness uses
    /// to drive benchmarks, like invoking an exported JS entry point).
    pub fn call(&mut self, name: &str, args: &[JsValue]) -> Result<JsValue, JsError> {
        let idx = *self
            .name_index
            .get(name)
            .ok_or_else(|| JsError::Reference { name: name.into() })?;
        let callee =
            self.globals[idx as usize].ok_or_else(|| JsError::Reference { name: name.into() })?;
        let Value::Closure(chunk) = callee else {
            return Err(JsError::Type {
                message: format!("{name} is not a function"),
            });
        };
        self.invoke(chunk, args)?;
        let v = self.stack.pop().unwrap_or(Value::Undefined);
        Ok(self.value_out(v))
    }

    /// Run `chunk` on `args` to completion, leaving its result on the
    /// stack. A run that fails leaves the stack, locals and frames as it
    /// found them, so nothing it held stays a GC root.
    fn invoke(&mut self, chunk: u32, args: &[JsValue]) -> Result<(), JsError> {
        let (stack, locals, floor) = (self.stack.len(), self.locals.len(), self.frames.len());
        self.stack.push(Value::Closure(chunk));
        for a in args {
            let v = self.value_in(a);
            self.stack.push(v);
        }
        let r = self
            .push_frame(chunk, args.len())
            .and_then(|()| self.run(floor));
        if r.is_err() {
            self.stack.truncate(stack);
            self.locals.truncate(locals);
            self.frames.truncate(floor);
        }
        r
    }

    /// The unpriced record of everything executed so far.
    pub fn record(&self) -> JsRecord {
        let (band_counts, arith) = self.folded();
        JsRecord {
            charges: self.charges.clone(),
            band_counts,
            heap: self.heap.stats(),
            arith: ArithCounts::from_columns(arith),
            code_ops: self.program.op_count(),
            clock_reads: self.clock_reads,
        }
    }

    /// The band and Table 12 counts so far: the region counters folded
    /// into what the loop counted per op.
    fn folded(&self) -> (BandCounts, [u64; 7]) {
        let (mut band_counts, mut arith) = (self.band_counts.clone(), self.arith);
        self.counters.fold(
            |c| &self.lowered[c].regions,
            &mut band_counts.ops,
            &mut arith,
        );
        (band_counts, arith)
    }

    /// The region profile behind [`JsVm::record`]: how often each region
    /// of each chunk of the script last loaded was entered in each band,
    /// with the bytecode ops it covers. Multiplying each entry's hits by
    /// its ops' classes gives the record's op counts, less the index
    /// accesses, `Math.*` calls and the charged part of a region an op
    /// failed in.
    pub fn region_profile(&self) -> Vec<RegionHits> {
        self.counters.profile(|c| &self.lowered[c].regions)
    }

    /// Offset in `self.counters` of `chunk`'s row for its current band,
    /// added on the chunk's first run in that band.
    #[inline]
    fn region_row(&mut self, chunk: usize) -> usize {
        let state = &mut self.chunk_state[chunk];
        let band = state.band;
        let regions = self.lowered[chunk].regions.len();
        *state
            .row
            .get_or_insert_with(|| self.counters.add_row(chunk, band, regions))
    }

    /// Charge the region holding `pc_end - 1`, which an op failed in
    /// before the region's end, as per-op counting would have: take back
    /// its entry (count and fuel) and charge its ops before `pc_end`.
    #[cold]
    fn settle_trap(&mut self, chunk: usize, row: usize, pc_end: usize) {
        let Some(last) = pc_end.checked_sub(1) else {
            return;
        };
        let (lowered, program) = (Rc::clone(&self.lowered), Rc::clone(&self.program));
        let regions = &lowered[chunk].regions;
        let code = &program.chunks[chunk].code;
        let band = self.chunk_state[chunk].band;
        self.steps -= self.counters.settle(
            row,
            regions.region_at(last),
            regions,
            pc_end,
            |pc| static_charge(&code[pc]),
            &mut self.band_counts.ops[band],
            &mut self.arith,
        );
    }

    /// Current measurement snapshot: the [`JsVm::record`] priced with
    /// this VM's config.
    pub fn report(&self) -> JsReport {
        self.record().price(&self.config)
    }

    /// Read a global as a public value (test/IO helper).
    pub fn global(&mut self, name: &str) -> Option<JsValue> {
        let idx = *self.name_index.get(name)?;
        let v = self.globals.get(idx as usize).copied().flatten()?;
        Some(self.value_out(v))
    }

    // ---- internals ------------------------------------------------------

    fn value_in(&mut self, v: &JsValue) -> Value {
        match v {
            JsValue::Num(n) => Value::Num(*n),
            JsValue::Bool(b) => Value::Bool(*b),
            JsValue::Null => Value::Null,
            JsValue::Undefined => Value::Undefined,
            JsValue::Str(s) => {
                let r = self.alloc(Obj::Str(s.clone()));
                Value::Ref(r)
            }
            JsValue::Array(items) => {
                let vals: Vec<Value> = items.iter().map(|i| self.value_in(i)).collect();
                let r = self.alloc(Obj::Arr(vals));
                Value::Ref(r)
            }
        }
    }

    fn value_out(&self, v: Value) -> JsValue {
        match v {
            Value::Num(n) => JsValue::Num(n),
            Value::Bool(b) => JsValue::Bool(b),
            Value::Null => JsValue::Null,
            Value::Undefined | Value::Closure(_) | Value::Builtin(_) => JsValue::Undefined,
            Value::Ref(r) => match self.heap.get(r) {
                Obj::Str(s) => JsValue::Str(s.clone()),
                Obj::Arr(items) => {
                    JsValue::Array(items.iter().map(|v| self.value_out(*v)).collect())
                }
                Obj::F64(items) => JsValue::Array(items.iter().map(|v| JsValue::Num(*v)).collect()),
                Obj::I32(items) => {
                    JsValue::Array(items.iter().map(|v| JsValue::Num(*v as f64)).collect())
                }
                Obj::U8(items) => {
                    JsValue::Array(items.iter().map(|v| JsValue::Num(*v as f64)).collect())
                }
                Obj::Dict(_) => JsValue::Undefined,
            },
        }
    }

    /// Allocate without collecting: GC only runs at instruction
    /// boundaries (see `run`), when every live value is rooted in the
    /// stack/locals/globals. Collecting here could free an object the
    /// current instruction still holds in Rust locals — or the newly
    /// allocated object itself, before the caller pushes its reference.
    fn alloc(&mut self, obj: Obj) -> u32 {
        self.charges.push(Charge::Alloc);
        self.heap.alloc(obj)
    }

    fn maybe_gc(&mut self) -> Result<(), JsError> {
        let limit = self.config.limits.memory_budget();
        let usage = {
            let s = self.heap.stats();
            s.live_bytes + s.external_bytes
        };
        // The heap ceiling forces a collection even below the pressure
        // trigger: only truly-live bytes may kill the run, like a real
        // engine's last-ditch GC before raising OOM. With no ceiling
        // configured (`limit == u64::MAX`, the grid default) this branch
        // never fires and GC scheduling is untouched.
        let over_limit = usage > limit;
        if !self
            .heap
            .should_collect(self.config.profile.gc.trigger_bytes)
            && !over_limit
        {
            // Nothing is due until the heap grows again (see `heap.rs`).
            self.heap.dirty = false;
            return Ok(());
        }
        let roots = self
            .globals
            .iter()
            .filter_map(|g| *g)
            .chain(self.stack.iter().copied())
            .chain(self.locals.iter().copied())
            .collect::<Vec<_>>();
        let live = self.heap.collect(roots.into_iter());
        self.charges.push(Charge::GcPause { live_bytes: live });
        let after = {
            let s = self.heap.stats();
            s.live_bytes + s.external_bytes
        };
        if after > limit {
            return Err(JsError::MemoryLimitExceeded {
                requested_bytes: after,
                limit,
            });
        }
        // Below a positive trigger again: nothing is due until it grows.
        self.heap.dirty = false;
        Ok(())
    }

    /// Enter `chunk` with the top `argc` stack values as its arguments.
    /// They move into the new frame's locals, and leave the stack with
    /// the callee (or method receiver) below them.
    fn push_frame(&mut self, chunk: u32, argc: usize) -> Result<(), JsError> {
        if self.frames.len() >= self.config.limits.max_call_depth {
            return Err(JsError::StackOverflow);
        }
        self.note_hotness(chunk as usize);
        let nlocals = self.program.chunks[chunk as usize].nlocals as usize;
        let base = self.stack.len() - argc;
        let locals_base = self.locals.len();
        self.locals
            .extend_from_slice(&self.stack[base..base + argc.min(nlocals)]);
        self.locals.resize(locals_base + nlocals, Value::Undefined);
        self.stack.truncate(base - 1);
        self.frames.push(Frame {
            chunk,
            pc: 0,
            locals_base,
        });
        Ok(())
    }

    /// Bump a chunk's hotness; when it reaches the next boundary of the
    /// VM's [`Bands`] (held with its band counts), move the chunk to the
    /// next band and record a [`Charge::BandCrossed`] marker carrying the
    /// chunk's op count.
    /// Pricing turns the marker at the JIT threshold into the chunk's
    /// JIT compile and drops the others.
    ///
    /// Execution reads neither the JIT mode nor any threshold. The band
    /// set and the GC trigger in `maybe_gc` are the only parts of the
    /// engine profile it depends on; with the limits and
    /// `reference_exec` they are all of [`JsVmConfig::projection`]. The
    /// JIT mode, the threshold and every cost parameter are applied
    /// later, by [`wb_env::price`].
    fn note_hotness(&mut self, chunk: usize) {
        let s = &mut self.chunk_state[chunk];
        s.hotness += 1;
        while let Some(boundary) = self.band_counts.bands.crossed(s.band, s.hotness) {
            s.band += 1;
            s.row = None;
            let size = self.program.chunks[chunk].code.len() as u64;
            self.charges.push(Charge::BandCrossed { boundary, size });
        }
    }

    fn type_error<T>(&self, message: impl Into<String>) -> Result<T, JsError> {
        Err(JsError::Type {
            message: message.into(),
        })
    }

    /// JS `ToNumber`: the number case inline, every other one in
    /// [`Self::to_num_slow`].
    #[inline(always)]
    fn to_num(&self, v: Value) -> f64 {
        match v {
            Value::Num(n) => n,
            other => self.to_num_slow(other),
        }
    }

    #[inline(never)]
    fn to_num_slow(&self, v: Value) -> f64 {
        match v {
            Value::Num(n) => n,
            Value::Bool(b) => b as u8 as f64,
            Value::Null => 0.0,
            Value::Undefined => f64::NAN,
            Value::Ref(r) => match self.heap.get(r) {
                Obj::Str(s) => string_to_number(s),
                _ => f64::NAN,
            },
            Value::Closure(_) | Value::Builtin(_) => f64::NAN,
        }
    }

    fn to_int32(&self, v: Value) -> i32 {
        num_to_int32(self.to_num(v))
    }

    fn to_uint32(&self, v: Value) -> u32 {
        self.to_int32(v) as u32
    }

    fn truthy(&self, v: Value) -> bool {
        match v {
            Value::Ref(r) => match self.heap.get(r) {
                Obj::Str(s) => !s.is_empty(),
                _ => true,
            },
            other => other.truthy_shallow(),
        }
    }

    fn stringify(&self, v: Value) -> String {
        match v {
            Value::Num(n) => format_number(n),
            Value::Bool(b) => b.to_string(),
            Value::Null => "null".into(),
            Value::Undefined => "undefined".into(),
            Value::Closure(_) => "function".into(),
            Value::Builtin(_) => "[object Object]".into(),
            Value::Ref(r) => match self.heap.get(r) {
                Obj::Str(s) => s.clone(),
                Obj::Arr(items) => {
                    let parts: Vec<String> = items.iter().map(|v| self.stringify(*v)).collect();
                    parts.join(",")
                }
                Obj::F64(items) => {
                    let parts: Vec<String> = items.iter().map(|v| format_number(*v)).collect();
                    parts.join(",")
                }
                Obj::I32(items) => {
                    let parts: Vec<String> = items.iter().map(|v| v.to_string()).collect();
                    parts.join(",")
                }
                Obj::U8(items) => {
                    let parts: Vec<String> = items.iter().map(|v| v.to_string()).collect();
                    parts.join(",")
                }
                Obj::Dict(_) => "[object Object]".into(),
            },
        }
    }

    fn loose_eq(&self, a: Value, b: Value) -> bool {
        use Value::*;
        match (a, b) {
            (Num(x), Num(y)) => x == y,
            (Bool(x), Bool(y)) => x == y,
            (Null, Null) | (Undefined, Undefined) | (Null, Undefined) | (Undefined, Null) => true,
            (Ref(x), Ref(y)) => {
                if x == y {
                    return true;
                }
                match (self.heap.get(x), self.heap.get(y)) {
                    (Obj::Str(s1), Obj::Str(s2)) => s1 == s2,
                    _ => false,
                }
            }
            (Ref(r), Num(n)) | (Num(n), Ref(r)) => match self.heap.get(r) {
                Obj::Str(_) => self.to_num(Ref(r)) == n,
                _ => false,
            },
            (Bool(x), y) => self.loose_eq(Num(x as u8 as f64), y),
            (x, Bool(y)) => self.loose_eq(x, Num(y as u8 as f64)),
            (Closure(x), Closure(y)) => x == y,
            _ => false,
        }
    }

    fn strict_eq(&self, a: Value, b: Value) -> bool {
        use Value::*;
        match (a, b) {
            (Num(x), Num(y)) => x == y,
            (Bool(x), Bool(y)) => x == y,
            (Null, Null) | (Undefined, Undefined) => true,
            (Ref(x), Ref(y)) => {
                if x == y {
                    return true;
                }
                match (self.heap.get(x), self.heap.get(y)) {
                    (Obj::Str(s1), Obj::Str(s2)) => s1 == s2,
                    _ => false,
                }
            }
            (Closure(x), Closure(y)) => x == y,
            (Builtin(x), Builtin(y)) => x == y,
            _ => false,
        }
    }

    /// Numeric-or-string comparison, returning Ordering-ish via closures.
    fn compare(&self, a: Value, b: Value) -> std::cmp::Ordering {
        if let (Value::Ref(x), Value::Ref(y)) = (a, b) {
            if let (Obj::Str(s1), Obj::Str(s2)) = (self.heap.get(x), self.heap.get(y)) {
                return s1.cmp(s2);
            }
        }
        let x = self.to_num(a);
        let y = self.to_num(b);
        x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Greater) // NaN: comparisons false-ish
    }

    /// Run frames above `floor` to completion. Fuel is checked at region
    /// heads, against the regions already run, so a region that overran
    /// the budget runs to its end or to an error; per-op counting would
    /// have stopped inside it, so either way the run ran out of steps.
    fn run(&mut self, floor: usize) -> Result<(), JsError> {
        let r = self.dispatch(floor);
        if self.steps > self.config.limits.fuel_budget() {
            return Err(JsError::StepBudgetExhausted);
        }
        r
    }

    /// The dispatch loop of [`Self::run`], over each chunk's micro-op
    /// stream (see `fuse.rs`).
    fn dispatch(&mut self, floor: usize) -> Result<(), JsError> {
        let program = Rc::clone(&self.program);
        let lowered = Rc::clone(&self.lowered);
        let fuel = self.config.limits.fuel_budget();
        'outer: while self.frames.len() > floor {
            let frame_idx = self.frames.len() - 1;
            let chunk_idx = self.frames[frame_idx].chunk as usize;
            let chunk = &program.chunks[chunk_idx];
            let LoweredChunk {
                code,
                pos,
                heads,
                spans,
                regions,
            } = &lowered[chunk_idx];
            let mut band = self.chunk_state[chunk_idx].band;
            let mut row = self.region_row(chunk_idx);
            let mut pc = self.frames[frame_idx].pc;
            let locals_base = self.frames[frame_idx].locals_base;

            // Enter region `$region` at the boundary control just crossed:
            // the GC safe point first, as at every boundary (a failed
            // collection at a head leaves no region open to settle), then
            // the fuel budget, checked against the regions already run so
            // the run stops at the first head past an overrun; then its
            // fuel is spent and its entry counted.
            macro_rules! enter {
                ($region:expr) => {{
                    let region = $region as usize;
                    if self.heap.dirty {
                        self.maybe_gc()?;
                    }
                    if self.steps > fuel {
                        return Err(JsError::StepBudgetExhausted);
                    }
                    self.steps += u64::from(regions.steps(region));
                    self.counters.enter(row, region);
                }};
            }
            // Move control to micro-op `$to`, entering the region it heads.
            macro_rules! goto {
                ($to:expr) => {{
                    pc = $to as usize;
                    enter!(heads[pc]);
                    continue;
                }};
            }
            macro_rules! suspend {
                ($next_pc:expr) => {{
                    self.frames[frame_idx].pc = $next_pc;
                    continue 'outer;
                }};
            }
            // An op that may fail inside its region: on an error, charge
            // the region only through this op.
            macro_rules! trapping {
                ($e:expr) => {
                    match $e {
                        Ok(v) => v,
                        Err(e) => {
                            self.settle_trap(chunk_idx, row, pos[pc] as usize + 1);
                            return Err(e);
                        }
                    }
                };
            }
            macro_rules! local {
                ($i:expr) => {
                    self.locals[locals_base + $i as usize]
                };
            }
            // A numeric binary op: the fused forms' definition, on
            // `ToNumber`'d operands.
            macro_rules! numeric {
                ($kind:expr) => {{
                    let b = self.stack.pop().expect("compiled");
                    let a = self.stack.pop().expect("compiled");
                    let r = $kind.apply(self.to_num(a), self.to_num(b));
                    self.stack.push(Value::Num(r));
                }};
            }
            // A fused form whose guard failed (one of an index form when
            // `$index`): fall through to the plain copy of its first op,
            // having charged nothing.
            macro_rules! fall_back {
                ($index:expr) => {{
                    self.fused_index[1] += u64::from($index);
                    pc += 1;
                    continue;
                }};
            }
            // A fused fast path: retire the path its comparison took
            // (`$cond`) of span `$span` as its plain copies would: enter
            // the regions they pass the heads of and the one they exit
            // to, count the index access (as a typed-array one when
            // `$typed`, the receiver's typedness, and as one the fused
            // forms served), and continue at the exit.
            macro_rules! retire {
                ($span:expr, $cond:expr, $typed:expr) => {{
                    let path = &spans[$span as usize][usize::from($cond)];
                    for &region in path.entered() {
                        enter!(region);
                    }
                    if let Some(store) = path.index {
                        self.count_index(band, $typed, store);
                        self.fused_index[0] += 1;
                    }
                    self.fused_runs[0] += 1;
                    self.fused_runs[1] += u64::from(path.ops);
                    pc = path.exit as usize;
                    continue;
                }};
            }

            // Frame entry or resume: every pc a frame starts or resumes at
            // heads a region.
            enter!(heads[pc]);
            loop {
                // Micro-op boundary: a GC-safe point (all live values are
                // reachable from stack/locals/globals), checked only when
                // the heap grew since a check last passed.
                if self.heap.dirty {
                    if let Err(e) = self.maybe_gc() {
                        self.settle_trap(chunk_idx, row, pos[pc] as usize);
                        return Err(e);
                    }
                }
                match code[pc] {
                    Mop::Const(ci) => match &chunk.consts[ci as usize] {
                        Const::Num(v) => self.stack.push(Value::Num(*v)),
                        Const::Str(s) => {
                            let r = self.alloc(Obj::Str(s.clone()));
                            self.stack.push(Value::Ref(r));
                        }
                    },
                    Mop::Undef => self.stack.push(Value::Undefined),
                    Mop::Null => self.stack.push(Value::Null),
                    Mop::True => self.stack.push(Value::Bool(true)),
                    Mop::False => self.stack.push(Value::Bool(false)),
                    Mop::LoadLocal(i) => {
                        let v = local!(i);
                        self.stack.push(v);
                    }
                    Mop::StoreLocal(i) => {
                        local!(i) = self.stack.pop().expect("compiled: value");
                    }
                    Mop::LoadGlobal(ni) => match self.globals[ni as usize] {
                        Some(v) => self.stack.push(v),
                        None => trapping!(Err(JsError::Reference {
                            name: program.name(ni).to_string(),
                        })),
                    },
                    Mop::StoreGlobal(ni) => {
                        let v = self.stack.pop().expect("compiled: value");
                        self.globals[ni as usize] = Some(v);
                    }
                    Mop::Add => {
                        let b = self.stack.pop().expect("compiled");
                        let a = self.stack.pop().expect("compiled");
                        let is_str = |vm: &Self, v: Value| matches!(v, Value::Ref(r) if matches!(vm.heap.get(r), Obj::Str(_)));
                        if is_str(self, a) || is_str(self, b) {
                            let s = format!("{}{}", self.stringify(a), self.stringify(b));
                            let r = self.alloc(Obj::Str(s));
                            self.stack.push(Value::Ref(r));
                        } else {
                            self.stack.push(Value::Num(self.to_num(a) + self.to_num(b)));
                        }
                    }
                    Mop::Bin(kind) => numeric!(kind),
                    Mop::Neg => {
                        let a = self.stack.pop().expect("compiled");
                        self.stack.push(Value::Num(-self.to_num(a)));
                    }
                    Mop::Not => {
                        let a = self.stack.pop().expect("compiled");
                        let t = self.truthy(a);
                        self.stack.push(Value::Bool(!t));
                    }
                    Mop::BitNot => {
                        let a = self.stack.pop().expect("compiled");
                        self.stack.push(Value::Num(!self.to_int32(a) as f64));
                    }
                    Mop::TypeofOp => {
                        let a = self.stack.pop().expect("compiled");
                        let s = match a {
                            Value::Ref(r) => match self.heap.get(r) {
                                Obj::Str(_) => "string",
                                _ => "object",
                            },
                            other => other.type_of(),
                        };
                        let r = self.alloc(Obj::Str(s.to_string()));
                        self.stack.push(Value::Ref(r));
                    }
                    Mop::Cmp(kind) => {
                        let b = self.stack.pop().expect("compiled");
                        let a = self.stack.pop().expect("compiled");
                        let result = self.compare_op(kind, a, b);
                        self.stack.push(Value::Bool(result));
                    }
                    Mop::Jump(to) => goto!(to),
                    Mop::JumpBack(to) => {
                        // Loop back-edge: hotness for OSR-style tier-up.
                        self.note_hotness(chunk_idx);
                        band = self.chunk_state[chunk_idx].band;
                        row = self.region_row(chunk_idx);
                        goto!(to);
                    }
                    Mop::JumpIfFalse(to) => {
                        let v = self.stack.pop().expect("compiled");
                        goto!(if self.truthy(v) { pc + 1 } else { to as usize });
                    }
                    Mop::JumpIfFalsePeek(to) => {
                        let v = *self.stack.last().expect("compiled");
                        if !self.truthy(v) {
                            goto!(to);
                        }
                        self.stack.pop();
                        goto!(pc + 1);
                    }
                    Mop::JumpIfTruePeek(to) => {
                        let v = *self.stack.last().expect("compiled");
                        if self.truthy(v) {
                            goto!(to);
                        }
                        self.stack.pop();
                        goto!(pc + 1);
                    }
                    Mop::Pop => {
                        self.stack.pop();
                    }
                    Mop::Dup => {
                        let v = *self.stack.last().expect("compiled");
                        self.stack.push(v);
                    }
                    Mop::Dup2 => {
                        let n = self.stack.len();
                        let a = self.stack[n - 2];
                        let b = self.stack[n - 1];
                        self.stack.push(a);
                        self.stack.push(b);
                    }
                    Mop::MakeArray(n) => {
                        let items = self.stack.split_off(self.stack.len() - n as usize);
                        let r = self.alloc(Obj::Arr(items));
                        self.stack.push(Value::Ref(r));
                    }
                    Mop::MakeObject { shape } => {
                        let keys = &chunk.object_shapes[shape as usize];
                        let values = self.stack.split_off(self.stack.len() - keys.len());
                        let fields: Vec<(u32, Value)> = keys.iter().copied().zip(values).collect();
                        let r = self.alloc(Obj::Dict(fields));
                        self.stack.push(Value::Ref(r));
                    }
                    Mop::NewTyped(kind) => {
                        let len = self.stack.pop().expect("compiled");
                        let n = self.to_num(len);
                        if !(0.0..=1e9).contains(&n) || n.fract() != 0.0 {
                            trapping!(Err(JsError::Range {
                                message: format!("invalid typed array length {n}"),
                            }));
                        }
                        let n = n as usize;
                        let obj = match kind {
                            crate::ast::TypedKind::F64 => Obj::F64(vec![0.0; n]),
                            crate::ast::TypedKind::I32 => Obj::I32(vec![0; n]),
                            crate::ast::TypedKind::U8 => Obj::U8(vec![0; n]),
                        };
                        let r = self.alloc(obj);
                        self.stack.push(Value::Ref(r));
                    }
                    Mop::NewArrayN => {
                        let len = self.stack.pop().expect("compiled");
                        let n = self.to_num(len);
                        if !(0.0..=1e9).contains(&n) || n.fract() != 0.0 {
                            trapping!(Err(JsError::Range {
                                message: format!("invalid array length {n}"),
                            }));
                        }
                        let r = self.alloc(Obj::Arr(vec![Value::Undefined; n as usize]));
                        self.stack.push(Value::Ref(r));
                    }
                    Mop::GetIndex => {
                        let idx = self.stack.pop().expect("compiled");
                        let obj = self.stack.pop().expect("compiled");
                        let v = trapping!(self.get_index(obj, idx, band));
                        self.stack.push(v);
                    }
                    Mop::SetIndex => {
                        let val = self.stack.pop().expect("compiled");
                        let idx = self.stack.pop().expect("compiled");
                        let obj = self.stack.pop().expect("compiled");
                        trapping!(self.set_index(obj, idx, val, band));
                        self.stack.push(val);
                    }
                    Mop::GetMember(ni) => {
                        let obj = self.stack.pop().expect("compiled");
                        let v = trapping!(self.get_member(obj, ni));
                        self.stack.push(v);
                    }
                    Mop::SetMember(ni) => {
                        let val = self.stack.pop().expect("compiled");
                        let obj = self.stack.pop().expect("compiled");
                        trapping!(self.set_member(obj, ni, val));
                        self.stack.push(val);
                    }
                    Mop::ClosureOp(idx) => self.stack.push(Value::Closure(idx)),
                    Mop::Call(argc) => {
                        let argc = argc as usize;
                        match self.stack[self.stack.len() - argc - 1] {
                            Value::Closure(target) => {
                                self.push_frame(target, argc)?;
                                suspend!(pc + 1);
                            }
                            other => {
                                return self.type_error(format!(
                                    "{} is not a function",
                                    self.stringify(other)
                                ))
                            }
                        }
                    }
                    Mop::MethodCall { name, argc } => {
                        // The call ends its region: per-op counting would
                        // not make it past a budget that region overran.
                        if self.steps > fuel {
                            return Err(JsError::StepBudgetExhausted);
                        }
                        // The receiver, then the arguments, stay on the
                        // stack until the method has read them.
                        let base = self.stack.len() - argc as usize;
                        match self.method_call(name, base)? {
                            MethodOutcome::Value(v) => {
                                self.stack.truncate(base - 1);
                                self.stack.push(v);
                                goto!(pc + 1);
                            }
                            MethodOutcome::EnterFrame => suspend!(pc + 1),
                        }
                    }
                    Mop::Return => {
                        let v = self.stack.pop().expect("compiled");
                        self.locals.truncate(locals_base);
                        self.frames.pop();
                        self.stack.push(v);
                        continue 'outer;
                    }
                    Mop::ReturnUndef => {
                        self.locals.truncate(locals_base);
                        self.frames.pop();
                        self.stack.push(Value::Undefined);
                        continue 'outer;
                    }
                    Mop::Enter => goto!(pc + 1),

                    // ---- fused forms -----------------------------------
                    // Guards run before any charge: a fallback leaves the
                    // virtual-cost state untouched, and the plain copies
                    // after the form replay the reference path exactly.
                    // Cost-equivalence invariant (see DESIGN.md): fast
                    // paths never allocate, never grow heap bytes and
                    // never note hotness, so GC safe-points and the band
                    // are the reference's at every op boundary.
                    Mop::LLBin { a, b, op, span } => {
                        let (Value::Num(x), Value::Num(y)) = (local!(a), local!(b)) else {
                            fall_back!(false);
                        };
                        self.stack.push(Value::Num(op.apply(x, y)));
                        retire!(span, true, false);
                    }
                    Mop::LLBinStore {
                        a,
                        b,
                        op,
                        dst,
                        span,
                    } => {
                        let (Value::Num(x), Value::Num(y)) = (local!(a), local!(b)) else {
                            fall_back!(false);
                        };
                        local!(dst) = Value::Num(op.apply(x, y));
                        retire!(span, true, false);
                    }
                    Mop::LCBin { a, c, op, span } => {
                        let Value::Num(x) = local!(a) else {
                            fall_back!(false);
                        };
                        self.stack.push(Value::Num(op.apply(x, c)));
                        retire!(span, true, false);
                    }
                    Mop::LCBinStore {
                        a,
                        c,
                        op,
                        dst,
                        span,
                    } => {
                        let Value::Num(x) = local!(a) else {
                            fall_back!(false);
                        };
                        local!(dst) = Value::Num(op.apply(x, c));
                        retire!(span, true, false);
                    }
                    Mop::LCBin2Store {
                        a,
                        c1,
                        op1,
                        c2,
                        op2,
                        dst,
                        span,
                    } => {
                        let Value::Num(x) = local!(a) else {
                            fall_back!(false);
                        };
                        local!(dst) = Value::Num(op2.apply(op1.apply(x, c1), c2));
                        retire!(span, true, false);
                    }
                    Mop::CStore { c, dst, span } => {
                        local!(dst) = Value::Num(c);
                        retire!(span, true, false);
                    }
                    Mop::CmpJf { op, span } => {
                        let n = self.stack.len();
                        let (Value::Num(x), Value::Num(y)) = (self.stack[n - 2], self.stack[n - 1])
                        else {
                            fall_back!(false);
                        };
                        self.stack.truncate(n - 2);
                        retire!(span, op.apply(x, y), false);
                    }
                    Mop::LLCmpJf { a, b, op, span, .. } => {
                        let (Value::Num(x), Value::Num(y)) = (local!(a), local!(b)) else {
                            fall_back!(false);
                        };
                        retire!(span, op.apply(x, y), false);
                    }
                    Mop::LCCmpJf { a, c, op, span, .. } => {
                        let Value::Num(x) = local!(a) else {
                            fall_back!(false);
                        };
                        retire!(span, op.apply(x, c), false);
                    }
                    Mop::GAddr {
                        g,
                        a,
                        c,
                        op1,
                        b,
                        op2,
                        get,
                        span,
                    } => {
                        let (Some(array), Value::Num(x), Value::Num(y)) =
                            (self.globals[g as usize], local!(a), local!(b))
                        else {
                            fall_back!(get);
                        };
                        let index = op2.apply(op1.apply(x, c), y);
                        if !get {
                            self.stack.push(array);
                            self.stack.push(Value::Num(index));
                            retire!(span, true, false);
                        }
                        // With a `GetIndex`, the element replaces both.
                        let Some((v, typed)) = self.element(array, index) else {
                            fall_back!(true);
                        };
                        self.stack.push(v);
                        retire!(span, true, typed);
                    }
                    Mop::LLGetIndex { obj, idx, span } => {
                        let Value::Num(n) = local!(idx) else {
                            fall_back!(true);
                        };
                        let Some((v, typed)) = self.element(local!(obj), n) else {
                            fall_back!(true);
                        };
                        self.stack.push(v);
                        retire!(span, true, typed);
                    }
                    Mop::SetIndexPop { span } => {
                        let n = self.stack.len();
                        let (obj, idx, val) =
                            (self.stack[n - 3], self.stack[n - 2], self.stack[n - 1]);
                        // Typed arrays only: a plain-array store can resize,
                        // which changes `bytes_since_gc` and thus GC timing.
                        let (Value::Ref(r), Value::Num(i)) = (obj, idx) else {
                            fall_back!(true);
                        };
                        if !self.store_typed(r, i, val) {
                            fall_back!(true);
                        }
                        // The `SetIndex` pushes `val`; the `Pop` removes it again.
                        self.stack.truncate(n - 3);
                        retire!(span, true, true);
                    }
                }
                pc += 1;
            }
        }
        Ok(())
    }

    /// A plain comparison: relational ones on numbers or strings, the
    /// equalities loose or strict.
    fn compare_op(&self, kind: CmpKind, a: Value, b: Value) -> bool {
        use std::cmp::Ordering::{Greater, Less};
        match kind {
            CmpKind::EqEq => self.loose_eq(a, b),
            CmpKind::NotEq => !self.loose_eq(a, b),
            CmpKind::StrictEq => self.strict_eq(a, b),
            CmpKind::StrictNe => !self.strict_eq(a, b),
            relational => {
                let both_str = matches!((a, b), (Value::Ref(_), Value::Ref(_)));
                if !both_str && (self.to_num(a).is_nan() || self.to_num(b).is_nan()) {
                    return false;
                }
                let ord = self.compare(a, b);
                match relational {
                    CmpKind::Lt => ord == Less,
                    CmpKind::Gt => ord == Greater,
                    CmpKind::Le => ord != Greater,
                    _ => ord != Less,
                }
            }
        }
    }

    /// Fused index forms: `(index accesses the fused forms served, fused
    /// index forms whose guards fell back)`. Host-side diagnostics only —
    /// never part of any measurement.
    pub fn ic_stats(&self) -> (u64, u64) {
        (self.fused_index[0], self.fused_index[1])
    }

    /// Interpreter dispatches: `(fused, plain)`, one per fused form run
    /// and one per plain op: the ops retired (the fuel spent) less those
    /// the fused forms retired. Host-side diagnostics only — never part
    /// of any measurement.
    pub fn dispatch_stats(&self) -> (u64, u64) {
        let [fused, fused_ops] = self.fused_runs;
        (fused, self.steps - fused_ops)
    }

    /// Count one index access in `band`: a typed-array receiver's in the
    /// typed counts, which the JIT prices apart, any other's with the
    /// plain ops. Both paths count here; the pricing fold decides the
    /// tier.
    #[inline(always)]
    fn count_index(&mut self, band: usize, typed: bool, store: bool) {
        let class = if store { OpClass::Store } else { OpClass::Load };
        let counts = if typed {
            &mut self.band_counts.typed
        } else {
            &mut self.band_counts.ops
        };
        counts[band].bump(class, 1);
    }

    /// The element at index `n` of `obj` when it is an array or a typed
    /// array, with whether it is typed: one heap lookup, and `undefined`
    /// at an index that is negative, fractional, NaN or out of bounds.
    /// `None` for any other receiver, whose read may allocate or fail.
    #[inline(always)]
    fn element(&self, obj: Value, n: f64) -> Option<(Value, bool)> {
        let Value::Ref(r) = obj else {
            return None;
        };
        let i = element_index(n);
        let num = |x: Option<f64>| x.map_or(Value::Undefined, Value::Num);
        Some(match self.heap.get(r) {
            Obj::Arr(items) => {
                let v = i.and_then(|i| items.get(i)).copied();
                (v.unwrap_or(Value::Undefined), false)
            }
            Obj::F64(items) => (num(i.and_then(|i| items.get(i)).copied()), true),
            Obj::I32(items) => (num(i.and_then(|i| items.get(i)).map(|x| *x as f64)), true),
            Obj::U8(items) => (num(i.and_then(|i| items.get(i)).map(|x| *x as f64)), true),
            Obj::Str(_) | Obj::Dict(_) => return None,
        })
    }

    /// Store `val` at index `n` of `r` when it is a typed array, where a
    /// store never changes a size; an index that is negative, fractional,
    /// NaN or out of bounds stores nothing. Returns whether `r` is typed.
    #[inline(always)]
    fn store_typed(&mut self, r: u32, n: f64, val: Value) -> bool {
        let vn = self.to_num(val);
        let i = element_index(n);
        match self.heap.get_mut(r) {
            Obj::F64(items) => {
                if let Some(slot) = i.and_then(|i| items.get_mut(i)) {
                    *slot = vn;
                }
            }
            Obj::I32(items) => {
                if let Some(slot) = i.and_then(|i| items.get_mut(i)) {
                    *slot = num_to_int32(vn);
                }
            }
            Obj::U8(items) => {
                if let Some(slot) = i.and_then(|i| items.get_mut(i)) {
                    *slot = (num_to_int32(vn) & 0xff) as u8;
                }
            }
            Obj::Arr(_) | Obj::Str(_) | Obj::Dict(_) => return false,
        }
        true
    }

    fn get_index(&mut self, obj: Value, idx: Value, band: usize) -> Result<Value, JsError> {
        let n = self.to_num(idx);
        let element = self.element(obj, n);
        self.count_index(band, element.is_some_and(|(_, typed)| typed), false);
        if let Some((v, _)) = element {
            return Ok(v);
        }
        let Value::Ref(r) = obj else {
            return self.type_error("cannot index a non-object");
        };
        let Obj::Str(s) = self.heap.get(r) else {
            return Ok(Value::Undefined);
        };
        Ok(match element_index(n).and_then(|i| s.chars().nth(i)) {
            Some(c) => Value::Ref(self.alloc(Obj::Str(c.to_string()))),
            None => Value::Undefined,
        })
    }

    fn set_index(
        &mut self,
        obj: Value,
        idx: Value,
        val: Value,
        band: usize,
    ) -> Result<(), JsError> {
        let Value::Ref(r) = obj else {
            self.count_index(band, false, true);
            return self.type_error("cannot index a non-object");
        };
        let n = self.to_num(idx);
        let typed = self.store_typed(r, n, val);
        self.count_index(band, typed, true);
        if typed {
            return Ok(());
        }
        let Some(i) = element_index(n) else {
            return Ok(()); // JS would create a string key; our corpus doesn't
        };
        let (oh, oe) = {
            let o = self.heap.get(r);
            (o.heap_bytes(), o.external_bytes())
        };
        let Obj::Arr(items) = self.heap.get_mut(r) else {
            return Ok(());
        };
        if i >= items.len() {
            items.resize(i + 1, Value::Undefined);
        }
        items[i] = val;
        self.heap.note_resize(oh, oe, r);
        Ok(())
    }

    fn get_member(&self, obj: Value, ni: u32) -> Result<Value, JsError> {
        let name = self.program.name(ni);
        match obj {
            Value::Builtin(Builtin::Math) => Ok(match name {
                "PI" => Value::Num(std::f64::consts::PI),
                "E" => Value::Num(std::f64::consts::E),
                "LN2" => Value::Num(std::f64::consts::LN_2),
                "LN10" => Value::Num(std::f64::consts::LN_10),
                _ => Value::Undefined,
            }),
            Value::Builtin(Builtin::NumberCls) => Ok(match name {
                "MAX_SAFE_INTEGER" => Value::Num(9007199254740991.0),
                "EPSILON" => Value::Num(f64::EPSILON),
                _ => Value::Undefined,
            }),
            Value::Ref(r) => match self.heap.get(r) {
                Obj::Arr(items) => Ok(if name == "length" {
                    Value::Num(items.len() as f64)
                } else {
                    Value::Undefined
                }),
                Obj::F64(items) => Ok(if name == "length" {
                    Value::Num(items.len() as f64)
                } else {
                    Value::Undefined
                }),
                Obj::I32(items) => Ok(if name == "length" {
                    Value::Num(items.len() as f64)
                } else {
                    Value::Undefined
                }),
                Obj::U8(items) => Ok(if name == "length" {
                    Value::Num(items.len() as f64)
                } else {
                    Value::Undefined
                }),
                Obj::Str(s) => Ok(if name == "length" {
                    Value::Num(s.chars().count() as f64)
                } else {
                    Value::Undefined
                }),
                Obj::Dict(fields) => Ok(fields
                    .iter()
                    .find(|(k, _)| *k == ni)
                    .map(|(_, v)| *v)
                    .unwrap_or(Value::Undefined)),
            },
            Value::Undefined | Value::Null => {
                self.type_error(format!("cannot read property '{name}' of {obj:?}"))
            }
            _ => Ok(Value::Undefined),
        }
    }

    fn set_member(&mut self, obj: Value, ni: u32, val: Value) -> Result<(), JsError> {
        let Value::Ref(r) = obj else {
            return self.type_error("cannot set property on a non-object");
        };
        let (oh, oe) = {
            let o = self.heap.get(r);
            (o.heap_bytes(), o.external_bytes())
        };
        match self.heap.get_mut(r) {
            Obj::Dict(fields) => match fields.iter_mut().find(|(k, _)| *k == ni) {
                Some((_, slot)) => *slot = val,
                None => fields.push((ni, val)),
            },
            _ => return Ok(()), // length etc. are read-only in MiniJS
        }
        self.heap.note_resize(oh, oe, r);
        Ok(())
    }

    /// Call the method named by `ni` on the receiver at `stack[base - 1]`
    /// with the arguments `stack[base..]`. A method that returns a value
    /// leaves them on the stack for the caller to pop; a closure entered
    /// takes them into its frame.
    fn method_call(&mut self, ni: u32, base: usize) -> Result<MethodOutcome, JsError> {
        let program = Rc::clone(&self.program);
        let name = program.name(ni);
        let obj = self.stack[base - 1];
        let argc = self.stack.len() - base;
        let arg_num = |vm: &Self, i: usize| vm.to_num(vm.arg(base, i));
        match obj {
            Value::Builtin(Builtin::Math) => {
                let x = arg_num(self, 0);
                let v = match name {
                    "floor" => x.floor(),
                    "ceil" => x.ceil(),
                    "round" => (x + 0.5).floor(), // JS rounds half up
                    "trunc" => x.trunc(),
                    "sqrt" => x.sqrt(),
                    "abs" => x.abs(),
                    "exp" => x.exp(),
                    "log" => x.ln(),
                    "sin" => x.sin(),
                    "cos" => x.cos(),
                    "tan" => x.tan(),
                    "atan" => x.atan(),
                    "atan2" => x.atan2(arg_num(self, 1)),
                    "pow" => x.powf(arg_num(self, 1)),
                    "min" => {
                        let mut m = f64::INFINITY;
                        for i in 0..argc {
                            m = m.min(arg_num(self, i));
                        }
                        m
                    }
                    "max" => {
                        let mut m = f64::NEG_INFINITY;
                        for i in 0..argc {
                            m = m.max(arg_num(self, i));
                        }
                        m
                    }
                    "random" => self.rng.next_f64(),
                    "imul" => {
                        let a = self.to_int32(self.arg(base, 0));
                        let b = self.to_int32(self.arg(base, 1));
                        a.wrapping_mul(b) as f64
                    }
                    "hypot" => x.hypot(arg_num(self, 1)),
                    _ => return self.type_error(format!("Math.{name} is not a function")),
                };
                // Math calls execute native code: charge one float op,
                // at the JIT tier under every tiering.
                self.band_counts.native.bump(OpClass::FloatDiv, 1);
                Ok(MethodOutcome::Value(Value::Num(v)))
            }
            Value::Builtin(Builtin::WbHarness) => match name {
                // Trap-check helpers compiled in by the wasm-parity JS
                // backend: reaching one of these *is* the trap.
                "div0" => Err(JsError::DivByZero),
                "oob" => {
                    let index = arg_num(self, 0) as i64;
                    let len = arg_num(self, 1) as u32;
                    Err(JsError::OutOfBounds { index, len })
                }
                _ => self.type_error(format!("__wb.{name} is not a function")),
            },
            Value::Builtin(Builtin::Console) => {
                let parts: Vec<String> = self.stack[base..]
                    .iter()
                    .map(|a| self.stringify(*a))
                    .collect();
                self.output.push(parts.join(" "));
                Ok(MethodOutcome::Value(Value::Undefined))
            }
            Value::Builtin(Builtin::Performance) => {
                if name == "now" {
                    self.clock_reads += 1;
                    let (band_counts, _) = self.folded();
                    let priced = wb_env::price(&self.config.prices(), &self.charges, &band_counts);
                    Ok(MethodOutcome::Value(Value::Num(
                        priced.clock.now().as_millis(),
                    )))
                } else {
                    self.type_error(format!("performance.{name} is not a function"))
                }
            }
            Value::Builtin(Builtin::Crypto) => {
                if name == "sha256" {
                    let bytes: Vec<u8> = match self.arg(base, 0) {
                        Value::Ref(r) => match self.heap.get(r) {
                            Obj::U8(b) => b.clone(),
                            Obj::Str(s) => s.as_bytes().to_vec(),
                            _ => return self.type_error("crypto.sha256 expects bytes or string"),
                        },
                        _ => return self.type_error("crypto.sha256 expects bytes or string"),
                    };
                    self.charges.push(Charge::Sha256 {
                        bytes: bytes.len() as u64,
                    });
                    let digest = sha256(&bytes).to_vec();
                    let r = self.alloc(Obj::U8(digest));
                    Ok(MethodOutcome::Value(Value::Ref(r)))
                } else {
                    self.type_error(format!("crypto.{name} is not a function"))
                }
            }
            Value::Builtin(Builtin::StringCls) => {
                if name == "fromCharCode" {
                    let mut s = String::new();
                    for i in 0..argc {
                        let code = arg_num(self, i) as u32;
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    let r = self.alloc(Obj::Str(s));
                    Ok(MethodOutcome::Value(Value::Ref(r)))
                } else {
                    self.type_error(format!("String.{name} is not a function"))
                }
            }
            Value::Builtin(Builtin::NumberCls) => match name {
                "isInteger" => {
                    let x = arg_num(self, 0);
                    Ok(MethodOutcome::Value(Value::Bool(
                        x.is_finite() && x.fract() == 0.0,
                    )))
                }
                // Bit-reinterpretation, modeling the Float64Array/Uint32Array
                // aliasing trick compiled JS uses for type punning — a
                // near-free operation in real engines, hence a builtin.
                "f64hi" => {
                    let bits = arg_num(self, 0).to_bits();
                    Ok(MethodOutcome::Value(Value::Num((bits >> 32) as u32 as f64)))
                }
                "f64lo" => {
                    let bits = arg_num(self, 0).to_bits();
                    Ok(MethodOutcome::Value(Value::Num(bits as u32 as f64)))
                }
                "f64frombits" => {
                    let hi = self.to_uint32(self.arg(base, 0));
                    let lo = self.to_uint32(self.arg(base, 1));
                    let bits = ((hi as u64) << 32) | lo as u64;
                    Ok(MethodOutcome::Value(Value::Num(f64::from_bits(bits))))
                }
                "f32bits" => {
                    let v = arg_num(self, 0) as f32;
                    Ok(MethodOutcome::Value(Value::Num(v.to_bits() as i32 as f64)))
                }
                "f32frombits" => {
                    let b = self.to_uint32(self.arg(base, 0));
                    Ok(MethodOutcome::Value(Value::Num(f32::from_bits(b) as f64)))
                }
                _ => self.type_error(format!("Number.{name} is not a function")),
            },
            // Dispatch on the receiver's kind; each method borrows what it
            // reads of the object in place.
            Value::Ref(r) => match self.heap.get(r) {
                Obj::Dict(fields) => {
                    // A closure-valued property: a "method" on a plain
                    // object (how the mathjs-style library is built).
                    let f = fields.iter().find(|(k, _)| *k == ni).map(|(_, v)| *v);
                    match f {
                        Some(Value::Closure(chunk)) => {
                            self.push_frame(chunk, argc)?;
                            Ok(MethodOutcome::EnterFrame)
                        }
                        _ => self.type_error(format!("{name} is not a function")),
                    }
                }
                Obj::Arr(_) => self.array_method(r, name, base),
                Obj::Str(_) => self.string_method(r, name, base),
                Obj::F64(_) | Obj::I32(_) | Obj::U8(_) => self.typed_method(r, name, base),
            },
            other => self.type_error(format!(
                "cannot call method '{name}' on {}",
                self.stringify(other)
            )),
        }
    }

    /// Method argument `i` of a call whose arguments start at
    /// `stack[base]` (`undefined` past the last one).
    fn arg(&self, base: usize, i: usize) -> Value {
        self.stack
            .get(base + i)
            .copied()
            .unwrap_or(Value::Undefined)
    }

    fn array_method(&mut self, r: u32, name: &str, base: usize) -> Result<MethodOutcome, JsError> {
        let (oh, oe) = {
            let o = self.heap.get(r);
            (o.heap_bytes(), o.external_bytes())
        };
        let out = match name {
            "push" => {
                let Obj::Arr(items) = self.heap.get_mut(r) else {
                    unreachable!()
                };
                items.extend_from_slice(&self.stack[base..]);
                let len = items.len() as f64;
                Value::Num(len)
            }
            "pop" => {
                let Obj::Arr(items) = self.heap.get_mut(r) else {
                    unreachable!()
                };
                items.pop().unwrap_or(Value::Undefined)
            }
            "fill" => {
                let v = self.arg(base, 0);
                let Obj::Arr(items) = self.heap.get_mut(r) else {
                    unreachable!()
                };
                for slot in items.iter_mut() {
                    *slot = v;
                }
                Value::Ref(r)
            }
            "indexOf" => {
                let target = self.arg(base, 0);
                let Obj::Arr(items) = self.heap.get(r) else {
                    unreachable!()
                };
                let pos = items.iter().position(|v| self.strict_eq(*v, target));
                Value::Num(pos.map(|p| p as f64).unwrap_or(-1.0))
            }
            "join" => {
                let sep = match self.stack.get(base) {
                    Some(s) => self.stringify(*s),
                    None => ",".into(),
                };
                let Obj::Arr(items) = self.heap.get(r) else {
                    unreachable!()
                };
                let parts: Vec<String> = items.iter().map(|v| self.stringify(*v)).collect();
                let joined = parts.join(&sep);
                let rs = self.alloc(Obj::Str(joined));
                Value::Ref(rs)
            }
            _ => return self.type_error(format!("array.{name} is not a function")),
        };
        self.heap.note_resize(oh, oe, r);
        Ok(MethodOutcome::Value(out))
    }

    fn string_method(&mut self, r: u32, name: &str, base: usize) -> Result<MethodOutcome, JsError> {
        /// New strings a method makes: computed while the receiver is
        /// borrowed, allocated after.
        enum Made {
            Str(String),
            /// `split`: the parts, then the array holding them.
            Parts(Vec<String>),
        }
        let Obj::Str(s) = self.heap.get(r) else {
            unreachable!()
        };
        let arg_num = |vm: &Self, i: usize| vm.to_num(vm.arg(base, i));
        let made = match name {
            "charCodeAt" => {
                let i = arg_num(self, 0);
                let code = s
                    .chars()
                    .nth(i as usize)
                    .map(|c| c as u32 as f64)
                    .unwrap_or(f64::NAN);
                return Ok(MethodOutcome::Value(Value::Num(code)));
            }
            "charAt" => {
                let i = arg_num(self, 0) as usize;
                Made::Str(s.chars().skip(i).take(1).collect())
            }
            "substring" => {
                let a = arg_num(self, 0).max(0.0) as usize;
                let b = if self.stack.len() - base > 1 {
                    arg_num(self, 1).max(0.0) as usize
                } else {
                    s.chars().count()
                };
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                Made::Str(s.chars().skip(lo).take(hi - lo).collect())
            }
            "indexOf" => {
                let Some(needle) = self.stack.get(base).map(|v| self.stringify(*v)) else {
                    return Ok(MethodOutcome::Value(Value::Num(-1.0)));
                };
                // Return a char index, not a byte index.
                let pos = match s.find(&needle) {
                    Some(byte_pos) => s[..byte_pos].chars().count() as f64,
                    None => -1.0,
                };
                return Ok(MethodOutcome::Value(Value::Num(pos)));
            }
            "split" => Made::Parts(match self.stack.get(base).map(|v| self.stringify(*v)) {
                None => vec![s.clone()],
                Some(sep) if sep.is_empty() => s.chars().map(|c| c.to_string()).collect(),
                Some(sep) => s.split(&sep).map(|p| p.to_string()).collect(),
            }),
            "toLowerCase" => Made::Str(s.to_lowercase()),
            _ => return self.type_error(format!("string.{name} is not a function")),
        };
        let out = match made {
            Made::Str(t) => self.alloc(Obj::Str(t)),
            Made::Parts(parts) => {
                let refs: Vec<Value> = parts
                    .into_iter()
                    .map(|p| Value::Ref(self.alloc(Obj::Str(p))))
                    .collect();
                self.alloc(Obj::Arr(refs))
            }
        };
        Ok(MethodOutcome::Value(Value::Ref(out)))
    }

    fn typed_method(&mut self, r: u32, name: &str, base: usize) -> Result<MethodOutcome, JsError> {
        match name {
            "fill" => {
                let v = self.arg(base, 0);
                let vn = self.to_num(v);
                let vi = self.to_int32(v);
                match self.heap.get_mut(r) {
                    Obj::F64(items) => items.iter_mut().for_each(|s| *s = vn),
                    Obj::I32(items) => items.iter_mut().for_each(|s| *s = vi),
                    Obj::U8(items) => items.iter_mut().for_each(|s| *s = (vi & 0xff) as u8),
                    _ => unreachable!(),
                }
                Ok(MethodOutcome::Value(Value::Ref(r)))
            }
            _ => self.type_error(format!("typedarray.{name} is not a function")),
        }
    }
}

enum MethodOutcome {
    Value(Value),
    EnterFrame,
}

/// JS `ToInt32` on an already-numeric value. The single definition both
/// the reference arms (via [`JsVm::to_int32`]) and the fused fast paths
/// use, so their coercion semantics cannot drift.
///
/// In `[-2^31, 2^31)` the modular definition is truncation, which `as`
/// does; NaN fails the range test. Only the rest pays the `fmod`.
#[inline(always)]
pub(crate) fn num_to_int32(n: f64) -> i32 {
    if (-2147483648.0..2147483648.0).contains(&n) {
        return n as i32;
    }
    int32_modular(n)
}

/// `ToInt32` by its definition: truncate, then reduce modulo 2^32 into
/// the signed range. Infinities and NaN give 0.
#[inline(never)]
fn int32_modular(n: f64) -> i32 {
    if !n.is_finite() {
        return 0;
    }
    let t = n.trunc();
    let m = t.rem_euclid(4294967296.0);
    let m = if m >= 2147483648.0 {
        m - 4294967296.0
    } else {
        m
    };
    m as i32
}

/// `n` as an element index; `None` for a negative, fractional or NaN
/// one, which names no element.
fn element_index(n: f64) -> Option<usize> {
    (n >= 0.0 && n.fract() == 0.0).then_some(n as usize)
}

/// JS `ToUint32` on an already-numeric value.
pub(crate) fn num_to_uint32(n: f64) -> u32 {
    num_to_int32(n) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(src: &str) -> JsVm {
        let mut vm = JsVm::new(JsVmConfig::reference());
        vm.load(src).unwrap();
        vm
    }

    #[test]
    fn arithmetic_and_calls() {
        let mut v = vm("function add(a, b) { return a + b * 2; }");
        let r = v
            .call("add", &[JsValue::Num(1.0), JsValue::Num(3.0)])
            .unwrap();
        assert_eq!(r, JsValue::Num(7.0));
    }

    #[test]
    fn loops_and_locals() {
        let mut v =
            vm("function sum(n) { var s = 0; for (var i = 1; i <= n; i++) s += i; return s; }");
        assert_eq!(
            v.call("sum", &[JsValue::Num(100.0)]).unwrap(),
            JsValue::Num(5050.0)
        );
    }

    #[test]
    fn strings_concat_and_methods() {
        let mut v = vm("function greet(name) { return 'hello ' + name + '!'; }\n\
             function code(s) { return s.charCodeAt(1); }");
        assert_eq!(
            v.call("greet", &[JsValue::Str("js".into())]).unwrap(),
            JsValue::Str("hello js!".into())
        );
        assert_eq!(
            v.call("code", &[JsValue::Str("abc".into())]).unwrap(),
            JsValue::Num(98.0)
        );
    }

    #[test]
    fn typed_arrays_work() {
        let mut v = vm("function dot(n) {\n\
               var a = new Float64Array(n); var b = new Float64Array(n);\n\
               for (var i = 0; i < n; i++) { a[i] = i; b[i] = 2; }\n\
               var s = 0;\n\
               for (var i = 0; i < n; i++) s += a[i] * b[i];\n\
               return s;\n\
             }");
        assert_eq!(
            v.call("dot", &[JsValue::Num(10.0)]).unwrap(),
            JsValue::Num(90.0)
        );
        let rep = v.report();
        assert!(rep.heap.external_bytes > 0, "typed arrays are external");
    }

    #[test]
    fn objects_and_methods() {
        let mut v = vm("var lib = { scale: function (x) { return x * 10; } };\n\
             function use(v) { return lib.scale(v) + 1; }");
        assert_eq!(
            v.call("use", &[JsValue::Num(4.0)]).unwrap(),
            JsValue::Num(41.0)
        );
    }

    #[test]
    fn gc_collects_garbage() {
        let mut cfg = JsVmConfig::reference();
        cfg.profile.gc.trigger_bytes = 32 * 1024;
        let mut v = JsVm::new(cfg);
        v.load(
            "function churn(n) {\n\
               var keep = [];\n\
               for (var i = 0; i < n; i++) { var tmp = [i, i, i, i]; if (i % 100 === 0) keep.push(tmp); }\n\
               return keep.length;\n\
             }",
        )
        .unwrap();
        let r = v.call("churn", &[JsValue::Num(5000.0)]).unwrap();
        assert_eq!(r, JsValue::Num(50.0));
        let rep = v.report();
        assert!(rep.heap.gc_count > 0, "GC must have run");
        assert!(rep.clock.gc_time.0 > 0.0, "GC pauses charged");
        // Live memory stays far below total allocations.
        assert!(rep.heap.live_bytes < 200 * 1024);
    }

    #[test]
    fn jit_tiers_up_hot_functions() {
        let src = "function hot(n) { var s = 0; for (var i = 0; i < n; i++) s += i; return s; }";
        let mut v = vm(src);
        v.call("hot", &[JsValue::Num(100000.0)]).unwrap();
        let enabled = v.report();
        assert!(enabled.jit_compiles >= 1);
        assert!(enabled.interp_counts.total() > 0, "warm-up interpreted");
        assert!(enabled.counts.total() > enabled.interp_counts.total());

        let mut cfg = JsVmConfig::reference();
        cfg.jit = JitMode::Disabled;
        let mut v2 = JsVm::new(cfg);
        v2.load(src).unwrap();
        v2.call("hot", &[JsValue::Num(100000.0)]).unwrap();
        let disabled = v2.report();
        assert_eq!(disabled.jit_compiles, 0);
        // The paper's Fig 10: JIT gives a large speedup on hot loops.
        let speedup = disabled.total.0 / enabled.total.0;
        assert!(speedup > 4.0, "JIT speedup was only {speedup:.2}x");
    }

    #[test]
    fn console_and_performance() {
        let mut v = vm("var t0 = performance.now();\n\
             console.log('answer', 42, true);\n\
             var t1 = performance.now();");
        assert_eq!(v.output, vec!["answer 42 true"]);
        let t0 = v.global("t0").unwrap().as_num().expect("number");
        let t1 = v.global("t1").unwrap().as_num().expect("number");
        assert!(t1 >= t0);
        // The script read the clock, so its record is tied to its price.
        assert_eq!(v.record().clock_reads, 2);
    }

    #[test]
    fn crypto_sha256_via_w3c_style_api() {
        let mut v = vm("function h(s) { var d = crypto.sha256(s); return d[0] * 256 + d[1]; }");
        // sha256("abc") begins 0xba 0x78.
        assert_eq!(
            v.call("h", &[JsValue::Str("abc".into())]).unwrap(),
            JsValue::Num((0xbau32 * 256 + 0x78) as f64)
        );
    }

    #[test]
    fn reference_error_for_unknown_globals() {
        let mut v = JsVm::new(JsVmConfig::reference());
        assert!(matches!(
            v.load("missing();"),
            Err(JsError::Reference { .. })
        ));
    }

    #[test]
    fn bitwise_ops_coerce_to_int32() {
        let mut v = vm("function f(a, b) { return ((a | 0) + (b >>> 1)) ^ 3; }");
        assert_eq!(
            v.call("f", &[JsValue::Num(5.9), JsValue::Num(7.0)])
                .unwrap(),
            JsValue::Num(((5 + 3) ^ 3) as f64)
        );
    }

    #[test]
    fn math_methods() {
        let mut v = vm("function f(x) { return Math.sqrt(x) + Math.max(1, 2, 3) + Math.PI; }");
        let r = v
            .call("f", &[JsValue::Num(16.0)])
            .unwrap()
            .as_num()
            .expect("number");
        assert!((r - (4.0 + 3.0 + std::f64::consts::PI)).abs() < 1e-12);
    }

    #[test]
    fn parse_cost_scales_with_source_size() {
        let small = vm("var x = 1;").report();
        let big_src = "var x = 1;".repeat(200);
        let big = {
            let mut v = JsVm::new(JsVmConfig::reference());
            v.load(&big_src).unwrap();
            v.report()
        };
        assert!(big.clock.load_time.0 > small.clock.load_time.0 * 50.0);
    }

    /// `ToInt32` by the spec's steps on exact integers: truncate, reduce
    /// modulo 2^32, read as signed. A double of magnitude 2^84 or more is
    /// a multiple of 2^32; every smaller one truncates into an `i128`.
    fn int32_oracle(n: f64) -> i32 {
        if !n.is_finite() || n.abs() >= 2f64.powi(84) {
            return 0;
        }
        n.trunc() as i128 as u32 as i32
    }

    fn assert_int32_exact(n: f64) {
        assert_eq!(num_to_int32(n), int32_oracle(n), "ToInt32({n:e})");
        assert_eq!(num_to_uint32(n), int32_oracle(n) as u32, "ToUint32({n:e})");
    }

    #[test]
    fn to_int32_fast_path_is_exact() {
        const P31: f64 = 2147483648.0;
        const P32: f64 = 4294967296.0;
        let edges = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            P31 - 1.0,
            -(P31 - 1.0),
            -P31,
            P31,
            -P31 - 0.5,
            P31 - 0.5,
            P32,
            -P32,
            P32 + 5.0,
            9007199254740992.0, // 2^53
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for n in edges {
            assert_int32_exact(n);
        }
        // The wrap points, literally.
        assert_eq!(num_to_int32(P31), i32::MIN);
        assert_eq!(num_to_int32(-P31 - 0.5), i32::MIN);
        assert_eq!(num_to_int32(P31 - 0.5), i32::MAX);
        assert_eq!(num_to_int32(P32 + 5.0), 5);
        assert_eq!(num_to_uint32(-1.0), u32::MAX);
        // Seeded doubles of every magnitude from 2^-3 to 2^90, either
        // sign, and every eighth one within a few units of +-2^31.
        let mut rng = wb_env::rng::Lcg::new(20);
        let (mut inside, mut outside) = (0, 0);
        for k in 0..200_000 {
            let bits = rng.next_u64();
            let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
            let n = if k % 8 == 0 {
                let offset = (bits >> 1) % 9;
                sign * (P31 + offset as f64 - 4.0) + ((bits >> 8) & 1) as f64 * 0.5
            } else {
                let mantissa = 1.0 + (bits >> 12) as f64 / (1u64 << 52) as f64;
                let exponent = (rng.next_u64() % 94) as i32 - 3;
                sign * mantissa * 2f64.powi(exponent)
            };
            if (-P31..P31).contains(&n) {
                inside += 1;
            } else {
                outside += 1;
            }
            assert_int32_exact(n);
        }
        assert!(
            inside > 50_000 && outside > 50_000,
            "{inside} in range, {outside} out"
        );
    }

    #[test]
    fn recursion_depth_limit() {
        let mut cfg = JsVmConfig::reference();
        cfg.limits.max_call_depth = 64;
        let mut v = JsVm::new(cfg);
        v.load("function f(n) { return f(n + 1); }").unwrap();
        assert_eq!(
            v.call("f", &[JsValue::Num(0.0)]),
            Err(JsError::StackOverflow)
        );
    }

    #[test]
    fn break_and_continue() {
        let mut v = vm("function f(n) {\n\
               var s = 0;\n\
               for (var i = 0; i < n; i++) {\n\
                 if (i % 2 === 0) continue;\n\
                 if (i > 10) break;\n\
                 s += i;\n\
               }\n\
               return s;\n\
             }");
        // odd numbers 1..=9: 1+3+5+7+9 = 25
        assert_eq!(
            v.call("f", &[JsValue::Num(100.0)]).unwrap(),
            JsValue::Num(25.0)
        );
    }

    #[test]
    fn ternary_and_logical_short_circuit() {
        let mut v = vm("var calls = 0;\n\
             function bump() { calls = calls + 1; return true; }\n\
             function f(x) { return x > 0 ? 'pos' : 'neg'; }\n\
             function g() { var r = false && bump(); var s = true || bump(); return calls; }");
        assert_eq!(
            v.call("f", &[JsValue::Num(5.0)]).unwrap(),
            JsValue::Str("pos".into())
        );
        assert_eq!(v.call("g", &[]).unwrap(), JsValue::Num(0.0));
    }
}
