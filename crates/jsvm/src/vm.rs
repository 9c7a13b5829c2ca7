//! The MiniJS virtual machine: the dispatch loop over each chunk's
//! micro-op stream, hotness bands, GC scheduling and the unpriced record
//! of a run ([`JsRecord`]), which `wb_env::price` turns into virtual
//! time, choosing the interpreter and JIT tiers as it goes.
//!
//! Every chunk is lowered once at load into micro-ops over frame slots
//! (`fuse.rs`), fused or not (`reference_exec`); the one loop runs either.
//! Every call's frame lives on one value stack, `params | locals |
//! constants | operands` from its base, the first argument; the callee
//! (or a method's receiver) sits in the slot below, which the result
//! replaces. The collector roots the globals and each frame up to its
//! height: a caller's below its callee's slot, the current frame's below
//! the micro-op's root end (`LoweredChunk::roots`).
//!
//! The loop charges per region, not per op (DESIGN.md §4). A region is
//! entered only where control moves into it, through one macro that runs
//! the GC safe point, checks the fuel budget against the regions already
//! run (so a region that overruns it runs to its end, its call or an
//! error, and the run then stops with `StepBudgetExhausted`), spends the
//! region's op count and counts the entry in the chunk's current band. A
//! fused form enters the regions its plain copies would on the path its
//! comparison took. Region counts are folded into class and Table 12
//! counts only when a record is read; a band changes only at chunk entry
//! and loop back-edges, which are region boundaries. What depends on a
//! value stays per op (index accesses by receiver, `Math.*` calls, every
//! `Charge` event). An op that fails inside its region takes back the
//! region's entry and charges the ops through itself (`settle_trap`).

use crate::bytecode::{Const, Program};
use crate::error::JsError;
use crate::fuse::{lower, static_charge, CmpKind, LoweredChunk, Mop};
use crate::heap::{Heap, HeapStats, Obj};
use crate::stdlib::{sha256, DetRng};
use crate::value::{format_number, string_to_number, Builtin, JsValue, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
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

/// One call's frame: its slots on [`JsVm`]'s value stack start at
/// `base`, the first argument, right above the callee (or the method's
/// receiver), whose slot the result replaces.
struct Frame {
    chunk: u32,
    /// The micro-op the frame starts or resumes at: a region head.
    pc: usize,
    base: usize,
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
    /// Every frame's slots (see `fuse.rs`), callers below callees.
    stack: Vec<Value>,
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
    /// Micro-ops dispatched: `[plain, fused]`, a fused one retiring more
    /// than one source op.
    dispatches: [u64; 2],
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
            frames: Vec::new(),
            chunk_state: Vec::new(),
            arith: [0; 7],
            charges: ChargeRecord::new(),
            clock_reads: 0,
            steps: 0,
            rng: DetRng::default(),
            lowered: Rc::new(Vec::new()),
            fused_index: [0; 2],
            dispatches: [0; 2],
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
        let lowered = program
            .chunks
            .iter()
            .map(|c| lower(c, fuse).map_err(|e| format!("{}: {e}", c.name)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|message| JsError::Compile { message })?;
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
    /// stack. A run that fails leaves the stack and frames as it found
    /// them, so nothing it held stays a GC root.
    fn invoke(&mut self, chunk: u32, args: &[JsValue]) -> Result<(), JsError> {
        let (stack, floor) = (self.stack.len(), self.frames.len());
        self.stack.push(Value::Closure(chunk));
        for a in args {
            let v = self.value_in(a);
            self.stack.push(v);
        }
        let r = self
            .push_frame(chunk, stack + 1, args.len())
            .and_then(|()| self.run(floor));
        if r.is_err() {
            self.stack.truncate(stack);
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
    /// frames or the globals. Collecting here could free an object the
    /// current instruction still holds in Rust locals — or the newly
    /// allocated object itself, before the caller stores its reference.
    fn alloc(&mut self, obj: Obj) -> u32 {
        self.charges.push(Charge::Alloc);
        self.heap.alloc(obj)
    }

    /// The GC safe point, with the current frame rooted below stack slot
    /// `end` (see [`Self::roots`]).
    fn maybe_gc(&mut self, end: usize) -> Result<(), JsError> {
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
        let live = self
            .heap
            .collect(Self::roots(&self.globals, &self.stack, &self.frames, end));
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

    /// What the collector roots: the globals, each caller's slots below
    /// its callee's (a method's receiver there is not a root: the
    /// reference dropped it at the call) and the current frame's below
    /// `end`. A slot above a frame's height is stale and never a root.
    fn roots<'a>(
        globals: &'a [Option<Value>],
        stack: &'a [Value],
        frames: &'a [Frame],
        end: usize,
    ) -> impl Iterator<Item = Value> + 'a {
        let ends = frames.iter().skip(1).map(|f| f.base - 1).chain([end]);
        let frames = frames.iter().zip(ends);
        let slots = frames.flat_map(move |(f, end)| stack[f.base..end].iter().copied());
        globals.iter().filter_map(|g| *g).chain(slots)
    }

    /// Enter `chunk` with the `argc` values from stack slot `base` on as
    /// its arguments: the frame starts there, with as many parameters as
    /// the chunk declares (missing ones `undefined`, extra ones
    /// overwritten), then its locals and constants copied in from the
    /// chunk's `frame_init`. The stack keeps its longest length, so its
    /// operand slots need no writes until they are pushed to.
    fn push_frame(&mut self, chunk: u32, base: usize, argc: usize) -> Result<(), JsError> {
        if self.frames.len() >= self.config.limits.max_call_depth {
            return Err(JsError::StackOverflow);
        }
        self.note_hotness(chunk as usize);
        let lowered = &self.lowered[chunk as usize];
        let (arity, end) = (lowered.arity as usize, base + lowered.frame_len as usize);
        if self.stack.len() < end {
            self.stack.resize(end, Value::Undefined);
        }
        self.stack[base + argc.min(arity)..base + arity].fill(Value::Undefined);
        let init = base + arity..base + arity + lowered.frame_init.len();
        self.stack[init].copy_from_slice(&lowered.frame_init);
        self.frames.push(Frame { chunk, pc: 0, base });
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
            // ToPrimitive: any other object converts through its string
            // form (an array through its joined elements).
            Value::Ref(r) => match self.heap.get(r) {
                Obj::Str(s) => string_to_number(s),
                _ => string_to_number(&self.stringify(v)),
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

    /// JS truthiness of stack slot `i`, its tag read first.
    #[inline(always)]
    fn truthy_at(&self, i: usize) -> bool {
        match &self.stack[i] {
            Value::Bool(b) => *b,
            Value::Ref(r) => !matches!(self.heap.get(*r), Obj::Str(s) if s.is_empty()),
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

    /// JS `==`: a heap object against a number or a string converts
    /// through ToPrimitive (`primitive_string`) first, a boolean to a
    /// number; two objects that are not strings are equal only when they
    /// are one object.
    fn loose_eq(&self, a: Value, b: Value) -> bool {
        use Value::*;
        match (a, b) {
            (Num(x), Num(y)) => x == y,
            (Bool(x), Bool(y)) => x == y,
            (Null, Null) | (Undefined, Undefined) | (Null, Undefined) | (Undefined, Null) => true,
            (Ref(x), Ref(y)) => {
                let is_str = |r| matches!(self.heap.get(r), Obj::Str(_));
                x == y
                    || ((is_str(x) || is_str(y))
                        && self.primitive_string(a) == self.primitive_string(b))
            }
            (Ref(r), Num(n)) | (Num(n), Ref(r)) => self.to_num(Ref(r)) == n,
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

    /// JS ToPrimitive for a relational operand: a heap object as a
    /// string (a string itself, any other object its `stringify`), and
    /// `None` for a value that is already primitive.
    fn primitive_string(&self, v: Value) -> Option<Cow<'_, str>> {
        match v {
            Value::Ref(r) => Some(match self.heap.get(r) {
                Obj::Str(s) => Cow::Borrowed(s.as_str()),
                _ => Cow::Owned(self.stringify(v)),
            }),
            _ => None,
        }
    }

    /// Run frames above `floor` to completion. Fuel is checked at region
    /// heads, against the regions already run, so a region that overran
    /// the budget runs to its end or to an error; per-op counting would
    /// have stopped inside it, so either way the run ran out of steps.
    fn run(&mut self, floor: usize) -> Result<(), JsError> {
        let mut dispatches = [0; 2];
        let r = self.dispatch(floor, &mut dispatches);
        for (total, run) in self.dispatches.iter_mut().zip(dispatches) {
            *total += run;
        }
        if self.steps > self.config.limits.fuel_budget() {
            return Err(JsError::StepBudgetExhausted);
        }
        r
    }

    /// The dispatch loop of [`Self::run`], over each chunk's micro-op
    /// stream (see `fuse.rs`): every operand and result is a slot of the
    /// current frame. Counts the micro-ops it dispatches in
    /// `dispatches`, `[plain, fused]`.
    fn dispatch(&mut self, floor: usize, dispatches: &mut [u64; 2]) -> Result<(), JsError> {
        let program = Rc::clone(&self.program);
        let lowered = Rc::clone(&self.lowered);
        let fuel = self.config.limits.fuel_budget();
        'outer: while self.frames.len() > floor {
            let frame_idx = self.frames.len() - 1;
            let chunk_idx = self.frames[frame_idx].chunk as usize;
            let chunk = &program.chunks[chunk_idx];
            let l = &lowered[chunk_idx];
            let mut band = self.chunk_state[chunk_idx].band;
            let mut row = self.region_row(chunk_idx);
            let mut pc = self.frames[frame_idx].pc;
            let fb = self.frames[frame_idx].base;

            macro_rules! slot {
                ($s:expr) => {
                    self.stack[fb + $s as usize]
                };
            }
            // A slot read as a number or as both numbers. The tag and the
            // payload are read apart, as the op before most likely wrote
            // them: a whole-value load of a value just stored in two
            // parts would wait for the stores to retire.
            macro_rules! num {
                ($s:expr) => {
                    match &slot!($s) {
                        Value::Num(n) => *n,
                        other => self.to_num_slow(*other),
                    }
                };
            }
            macro_rules! val {
                ($s:expr) => {
                    match &slot!($s) {
                        Value::Num(n) => Value::Num(*n),
                        Value::Ref(r) => Value::Ref(*r),
                        other => *other,
                    }
                };
            }
            macro_rules! nums {
                ($a:expr, $b:expr) => {
                    match (&slot!($a), &slot!($b)) {
                        (Value::Num(x), Value::Num(y)) => Some((*x, *y)),
                        _ => None,
                    }
                };
            }
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
                        self.maybe_gc(fb + l.roots[pc] as usize)?;
                    }
                    if self.steps > fuel {
                        return Err(JsError::StepBudgetExhausted);
                    }
                    self.steps += u64::from(l.regions.steps(region));
                    self.counters.enter(row, region);
                }};
            }
            // Move control to micro-op `$to`, entering the region it heads.
            macro_rules! goto {
                ($to:expr) => {{
                    pc = $to as usize;
                    enter!(l.heads[pc]);
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
                            self.settle_trap(chunk_idx, row, l.pos[pc] as usize + 1);
                            return Err(e);
                        }
                    }
                };
            }
            // The result of an op that may have allocated, into slot
            // `$dst`. A local keeps its old value through the op's
            // boundary, as the reference's `StoreLocal` after the op does:
            // the result waits in its own slot, the first above the root
            // end after the op, for the collection.
            macro_rules! put {
                ($dst:expr, $v:expr) => {{
                    let v = $v;
                    if $dst < l.nlocals && self.heap.dirty {
                        let own = fb + l.roots[pc + 1] as usize;
                        self.stack[own] = v;
                        trapping!(self.maybe_gc(own + 1));
                    }
                    slot!($dst) = v;
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
            // A fused form: retire the path its comparison took (`$cond`)
            // of span `$span` as its plain copies would: enter the regions
            // they pass the heads of and the one they exit to, count the
            // index access (as a typed-array one when `$typed`, the
            // receiver's typedness, and as one the fused forms served),
            // and continue at the exit.
            macro_rules! retire {
                ($span:expr, $cond:expr, $typed:expr) => {{
                    let path = &l.spans[$span as usize][usize::from($cond)];
                    for &region in path.entered() {
                        enter!(region);
                    }
                    if let Some(store) = path.index {
                        self.count_index(band, $typed, store);
                        self.fused_index[0] += 1;
                    }
                    pc = path.exit as usize;
                    continue;
                }};
            }

            // Frame entry or resume: every pc a frame starts or resumes at
            // heads a region.
            enter!(l.heads[pc]);
            loop {
                // Micro-op boundary: a GC-safe point, checked only when
                // the heap grew since a check last passed, which only the
                // micro-op before this one can have done.
                if self.heap.dirty {
                    if let Err(e) = self.maybe_gc(fb + l.roots[pc] as usize) {
                        // Charge the region through the op that grew the heap.
                        let through = pc.checked_sub(1).map_or(0, |p| l.pos[p] as usize + 1);
                        self.settle_trap(chunk_idx, row, through);
                        return Err(e);
                    }
                }
                dispatches[usize::from(l.fused[pc])] += 1;
                match l.code[pc] {
                    Mop::Copy(src, dst) => slot!(dst) = val!(src),
                    Mop::Str(ci, dst) => {
                        let Const::Str(s) = &chunk.consts[ci as usize] else {
                            unreachable!("lowered from a string constant")
                        };
                        let r = self.alloc(Obj::Str(s.clone()));
                        put!(dst, Value::Ref(r));
                    }
                    Mop::LoadGlobal(g, dst) => match self.globals[g as usize] {
                        Some(v) => slot!(dst) = v,
                        None => trapping!(Err(JsError::Reference {
                            name: program.name(g).to_string(),
                        })),
                    },
                    Mop::StoreGlobal(g, src) => self.globals[g as usize] = Some(val!(src)),
                    Mop::Closure(chunk, dst) => slot!(dst) = Value::Closure(chunk),
                    Mop::Add(a, b, dst) => {
                        let v = match nums!(a, b) {
                            Some((x, y)) => Value::Num(x + y),
                            None => self.add(val!(a), val!(b)),
                        };
                        put!(dst, v);
                    }
                    Mop::Bin(kind, a, b, dst) => {
                        let (x, y) = (num!(a), num!(b));
                        slot!(dst) = Value::Num(kind.apply(x, y));
                    }
                    Mop::Cmp(kind, a, b, dst) => {
                        slot!(dst) = Value::Bool(match nums!(a, b) {
                            Some((x, y)) => kind.apply(x, y),
                            None => self.compare_op(kind, val!(a), val!(b)),
                        });
                    }
                    Mop::Neg(a, dst) => slot!(dst) = Value::Num(-num!(a)),
                    Mop::Not(a, dst) => slot!(dst) = Value::Bool(!self.truthy_at(fb + a as usize)),
                    Mop::BitNot(a, dst) => {
                        slot!(dst) = Value::Num(!num_to_int32(num!(a)) as f64);
                    }
                    Mop::Typeof(a, dst) => {
                        let s = match val!(a) {
                            Value::Ref(r) => match self.heap.get(r) {
                                Obj::Str(_) => "string",
                                _ => "object",
                            },
                            other => other.type_of(),
                        };
                        let r = self.alloc(Obj::Str(s.to_string()));
                        put!(dst, Value::Ref(r));
                    }
                    Mop::Jump(to) => goto!(to),
                    Mop::JumpBack(to) => {
                        // Loop back-edge: hotness for OSR-style tier-up.
                        self.note_hotness(chunk_idx);
                        band = self.chunk_state[chunk_idx].band;
                        row = self.region_row(chunk_idx);
                        goto!(to);
                    }
                    Mop::JumpIfFalse(c, to)
                    | Mop::JumpIfFalsePeek(c, to)
                    | Mop::JumpIfTruePeek(c, to) => {
                        let when = matches!(l.code[pc], Mop::JumpIfTruePeek(..));
                        goto!(if self.truthy_at(fb + c as usize) == when {
                            to as usize
                        } else {
                            pc + 1
                        });
                    }
                    Mop::CmpBr(kind, a, b, to) => {
                        let holds = match nums!(a, b) {
                            Some((x, y)) => kind.apply(x, y),
                            None => self.compare_op(kind, val!(a), val!(b)),
                        };
                        goto!(if holds { pc + 1 } else { to as usize });
                    }
                    Mop::MakeArray(items, n, dst) => {
                        let from = fb + items as usize;
                        let items = self.stack[from..from + n as usize].to_vec();
                        let r = self.alloc(Obj::Arr(items));
                        put!(dst, Value::Ref(r));
                    }
                    Mop::MakeObject(items, shape, dst) => {
                        let keys = &chunk.object_shapes[shape as usize];
                        let values = &self.stack[fb + items as usize..];
                        let fields = keys.iter().copied().zip(values.iter().copied()).collect();
                        let r = self.alloc(Obj::Dict(fields));
                        put!(dst, Value::Ref(r));
                    }
                    Mop::NewTyped(kind, len, dst) => {
                        let n = trapping!(self.array_len(val!(len), "typed array"));
                        let obj = match kind {
                            crate::ast::TypedKind::F64 => Obj::F64(vec![0.0; n]),
                            crate::ast::TypedKind::I32 => Obj::I32(vec![0; n]),
                            crate::ast::TypedKind::U8 => Obj::U8(vec![0; n]),
                        };
                        let r = self.alloc(obj);
                        put!(dst, Value::Ref(r));
                    }
                    Mop::NewArrayN(len, dst) => {
                        let n = trapping!(self.array_len(val!(len), "array"));
                        let r = self.alloc(Obj::Arr(vec![Value::Undefined; n]));
                        put!(dst, Value::Ref(r));
                    }
                    Mop::GetIndex(obj, idx, dst) => {
                        let v = trapping!(self.get_index(val!(obj), val!(idx), band));
                        put!(dst, v);
                    }
                    Mop::SetIndex(obj, idx, val, dst) => {
                        let v = val!(val);
                        trapping!(self.set_index(val!(obj), val!(idx), v, band));
                        put!(dst, v);
                    }
                    Mop::GetMember(obj, name, dst) => {
                        slot!(dst) = trapping!(self.get_member(val!(obj), name));
                    }
                    Mop::SetMember(obj, name, val, dst) => {
                        let v = val!(val);
                        trapping!(self.set_member(val!(obj), name, v));
                        put!(dst, v);
                    }
                    Mop::Call(callee, argc) => {
                        let callee = fb + callee as usize;
                        match self.stack[callee] {
                            Value::Closure(target) => {
                                self.push_frame(target, callee + 1, argc as usize)?;
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
                    Mop::MethodCall(name, recv, argc) => {
                        // The call ends its region: per-op counting would
                        // not make it past a budget that region overran.
                        if self.steps > fuel {
                            return Err(JsError::StepBudgetExhausted);
                        }
                        let recv = fb + recv as usize;
                        let args = recv + 1..recv + 1 + argc as usize;
                        match self.method_call(name, recv, args)? {
                            MethodOutcome::Value(v) => {
                                self.stack[recv] = v;
                                goto!(pc + 1);
                            }
                            MethodOutcome::EnterFrame => suspend!(pc + 1),
                        }
                    }
                    Mop::Return(_) | Mop::ReturnUndef => {
                        // The result replaces the callee; the stack ends
                        // with it when the run returns.
                        let v = match l.code[pc] {
                            Mop::Return(src) => val!(src),
                            _ => Value::Undefined,
                        };
                        self.frames.pop();
                        self.stack[fb - 1] = v;
                        if self.frames.len() <= floor {
                            self.stack.truncate(fb);
                        }
                        continue 'outer;
                    }
                    Mop::Enter => goto!(pc + 1),

                    // ---- fused forms -----------------------------------
                    // A guard runs before any charge: a fallback leaves
                    // the virtual-cost state untouched, and the plain
                    // copies after the form replay the reference path
                    // exactly. No fast path allocates, grows heap bytes or
                    // notes hotness (see `fuse.rs`).
                    Mop::CmpBrSpan(kind, a, b, span) => {
                        let holds = match nums!(a, b) {
                            Some((x, y)) => kind.apply(x, y),
                            None => self.compare_op(kind, val!(a), val!(b)),
                        };
                        retire!(span, holds, false);
                    }
                    Mop::GAddr {
                        g,
                        a,
                        c,
                        op1,
                        b,
                        op2,
                        get,
                        dst,
                        span,
                    } => {
                        let (Some(array), Some((x, y))) = (self.globals[g as usize], nums!(a, b))
                        else {
                            fall_back!(get);
                        };
                        let index = op2.apply(op1.apply(x, c), y);
                        if !get {
                            slot!(dst) = array;
                            slot!(dst + 1) = Value::Num(index);
                            retire!(span, true, false);
                        }
                        // With a `GetIndex`, the element replaces both.
                        let Some((v, typed)) = self.element(array, index) else {
                            fall_back!(true);
                        };
                        slot!(dst) = v;
                        retire!(span, true, typed);
                    }
                    Mop::LLGetIndex(obj, idx, dst, span) => {
                        let &Value::Num(n) = &slot!(idx) else {
                            fall_back!(true);
                        };
                        let Some((v, typed)) = self.element(val!(obj), n) else {
                            fall_back!(true);
                        };
                        slot!(dst) = v;
                        retire!(span, true, typed);
                    }
                    Mop::SetIndexPop(obj, idx, val, span) => {
                        // Typed arrays only: a plain-array store can resize,
                        // which changes `bytes_since_gc` and thus GC timing.
                        let (&Value::Ref(r), &Value::Num(i)) = (&slot!(obj), &slot!(idx)) else {
                            fall_back!(true);
                        };
                        if !self.store_typed(r, i, num!(val)) {
                            fall_back!(true);
                        }
                        retire!(span, true, true);
                    }
                }
                pc += 1;
            }
        }
        Ok(())
    }

    /// JS `Add` on operands that are not both numbers: a string
    /// concatenation when either is a string, else a sum.
    #[inline(never)]
    fn add(&mut self, a: Value, b: Value) -> Value {
        let is_str = |vm: &Self, v: Value| matches!(v, Value::Ref(r) if matches!(vm.heap.get(r), Obj::Str(_)));
        if is_str(self, a) || is_str(self, b) {
            let s = format!("{}{}", self.stringify(a), self.stringify(b));
            Value::Ref(self.alloc(Obj::Str(s)))
        } else {
            Value::Num(self.to_num(a) + self.to_num(b))
        }
    }

    /// A new array's length: a whole number in `0..=1e9`.
    fn array_len(&self, len: Value, what: &str) -> Result<usize, JsError> {
        let n = self.to_num(len);
        if !(0.0..=1e9).contains(&n) || n.fract() != 0.0 {
            return Err(JsError::Range {
                message: format!("invalid {what} length {n}"),
            });
        }
        Ok(n as usize)
    }

    /// A comparison whose operands are not both numbers (those take
    /// `CmpKind::apply`): relational ones on numbers or strings, the
    /// equalities loose or strict.
    fn compare_op(&self, kind: CmpKind, a: Value, b: Value) -> bool {
        use std::cmp::Ordering::{Greater, Less};
        match kind {
            CmpKind::EqEq => self.loose_eq(a, b),
            CmpKind::NotEq => !self.loose_eq(a, b),
            CmpKind::StrictEq => self.strict_eq(a, b),
            CmpKind::StrictNe => !self.strict_eq(a, b),
            relational => {
                // Both operands to primitives first: two strings compare
                // as strings, anything else as numbers, and NaN compares
                // false.
                let ord = match (self.primitive_string(a), self.primitive_string(b)) {
                    (Some(x), Some(y)) => x.cmp(&y),
                    (x, y) => {
                        let num = |s: Option<Cow<'_, str>>, v| {
                            s.map_or_else(|| self.to_num(v), |s| string_to_number(&s))
                        };
                        match num(x, a).partial_cmp(&num(y, b)) {
                            Some(ord) => ord,
                            None => return false,
                        }
                    }
                };
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

    /// Micro-ops dispatched: `(fused, plain)`, a fused one retiring more
    /// than one source op (it reads an operand in place, writes a local
    /// or is a fused form). Host-side diagnostics only — never part of
    /// any measurement.
    pub fn dispatch_stats(&self) -> (u64, u64) {
        let [plain, fused] = self.dispatches;
        (fused, plain)
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
    fn store_typed(&mut self, r: u32, n: f64, vn: f64) -> bool {
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
        let typed = self.store_typed(r, n, self.to_num(val));
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

    /// Call the method named by `ni` on the receiver at `stack[recv]`
    /// with the arguments `stack[args]`, right above it. A closure entered
    /// starts its frame at them.
    fn method_call(
        &mut self,
        ni: u32,
        recv: usize,
        args: Range<usize>,
    ) -> Result<MethodOutcome, JsError> {
        let program = Rc::clone(&self.program);
        let name = program.name(ni);
        let obj = self.stack[recv];
        let argc = args.len();
        let arg_num = |vm: &Self, i: usize| vm.to_num(vm.arg(&args, i));
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
                        let a = self.to_int32(self.arg(&args, 0));
                        let b = self.to_int32(self.arg(&args, 1));
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
                let parts: Vec<String> = self.stack[args.clone()]
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
                    let bytes: Vec<u8> = match self.arg(&args, 0) {
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
                    let hi = self.to_uint32(self.arg(&args, 0));
                    let lo = self.to_uint32(self.arg(&args, 1));
                    let bits = ((hi as u64) << 32) | lo as u64;
                    Ok(MethodOutcome::Value(Value::Num(f64::from_bits(bits))))
                }
                "f32bits" => {
                    let v = arg_num(self, 0) as f32;
                    Ok(MethodOutcome::Value(Value::Num(v.to_bits() as i32 as f64)))
                }
                "f32frombits" => {
                    let b = self.to_uint32(self.arg(&args, 0));
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
                            self.push_frame(chunk, args.start, argc)?;
                            Ok(MethodOutcome::EnterFrame)
                        }
                        _ => self.type_error(format!("{name} is not a function")),
                    }
                }
                Obj::Arr(_) => self.array_method(r, name, args),
                Obj::Str(_) => self.string_method(r, name, args),
                Obj::F64(_) | Obj::I32(_) | Obj::U8(_) => self.typed_method(r, name, args),
            },
            other => self.type_error(format!(
                "cannot call method '{name}' on {}",
                self.stringify(other)
            )),
        }
    }

    /// Method argument `i` of a call whose arguments are `stack[args]`
    /// (`undefined` past the last one).
    fn arg(&self, args: &Range<usize>, i: usize) -> Value {
        self.stack[args.clone()]
            .get(i)
            .copied()
            .unwrap_or(Value::Undefined)
    }

    fn array_method(
        &mut self,
        r: u32,
        name: &str,
        args: Range<usize>,
    ) -> Result<MethodOutcome, JsError> {
        let (oh, oe) = {
            let o = self.heap.get(r);
            (o.heap_bytes(), o.external_bytes())
        };
        let out = match name {
            "push" => {
                let Obj::Arr(items) = self.heap.get_mut(r) else {
                    unreachable!()
                };
                items.extend_from_slice(&self.stack[args]);
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
                let v = self.arg(&args, 0);
                let Obj::Arr(items) = self.heap.get_mut(r) else {
                    unreachable!()
                };
                for slot in items.iter_mut() {
                    *slot = v;
                }
                Value::Ref(r)
            }
            "indexOf" => {
                let target = self.arg(&args, 0);
                let Obj::Arr(items) = self.heap.get(r) else {
                    unreachable!()
                };
                let pos = items.iter().position(|v| self.strict_eq(*v, target));
                Value::Num(pos.map(|p| p as f64).unwrap_or(-1.0))
            }
            "join" => {
                let sep = match self.stack[args].first() {
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

    fn string_method(
        &mut self,
        r: u32,
        name: &str,
        args: Range<usize>,
    ) -> Result<MethodOutcome, JsError> {
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
        let arg_num = |vm: &Self, i: usize| vm.to_num(vm.arg(&args, i));
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
                let b = if args.len() > 1 {
                    arg_num(self, 1).max(0.0) as usize
                } else {
                    s.chars().count()
                };
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                Made::Str(s.chars().skip(lo).take(hi - lo).collect())
            }
            "indexOf" => {
                let Some(needle) = self.stack[args].first().map(|v| self.stringify(*v)) else {
                    return Ok(MethodOutcome::Value(Value::Num(-1.0)));
                };
                // Return a char index, not a byte index.
                let pos = match s.find(&needle) {
                    Some(byte_pos) => s[..byte_pos].chars().count() as f64,
                    None => -1.0,
                };
                return Ok(MethodOutcome::Value(Value::Num(pos)));
            }
            "split" => Made::Parts(match self.stack[args].first().map(|v| self.stringify(*v)) {
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

    fn typed_method(
        &mut self,
        r: u32,
        name: &str,
        args: Range<usize>,
    ) -> Result<MethodOutcome, JsError> {
        match name {
            "fill" => {
                let v = self.arg(&args, 0);
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
