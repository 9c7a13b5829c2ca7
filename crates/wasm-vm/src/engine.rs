//! Instance lifecycle: instantiation (decode → validate → baseline
//! compile → memory/global/table init → start function), host-function
//! binding, hotness state, the value stack every frame of a run lives on
//! (tagged [`Value`]s cross into it only at `invoke` and the start
//! function), and measurement reporting (which folds the region counters
//! of `exec.rs` into per-band op counts).

use crate::fuse::{bits_to_value, const_bits_of, value_bits};
use crate::prep::PreparedModule;
use crate::trap::Trap;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;
use wb_env::{
    ArithCounts, BandCounts, Bands, Charge, ChargeRecord, EnginePrices, Nanos, OpCounts, PriceList,
    RegionCounters, RegionHits, RegionTable, ResourceLimits, TierPolicy, Tiering, VirtualClock,
    WasmEngineProfile,
};
use wb_wasm::{decode_module, LinearMemory, Module, ValType};

/// Configuration of one VM run.
#[derive(Debug, Clone)]
pub struct WasmVmConfig {
    /// Engine parameters (tiers, thresholds, grow costs, context switch).
    pub profile: WasmEngineProfile,
    /// Which compilation tiers are enabled (Table 11 flags).
    pub tier_policy: TierPolicy,
    /// Nanoseconds per abstract cycle (platform speed).
    pub cycle_time_ns: f64,
    /// Toolchain codegen overhead multiplier applied to executed
    /// instruction cycles (Cheerp vs Emscripten, §4.2.2). 1.0 for
    /// hand-written modules.
    pub exec_overhead: f64,
    /// Resource ceilings: fuel (retired-instruction budget →
    /// [`Trap::StepBudgetExhausted`]), linear-memory ceiling
    /// ([`Trap::MemoryLimitExceeded`]) and call depth
    /// ([`Trap::StackOverflow`]). Limits are checked on existing
    /// virtual-cost events and never add charges, so default-limit runs
    /// are bit-identical to unlimited ones.
    pub limits: ResourceLimits,
    /// Lower with fusion off: the one dispatch loop runs one micro-op per
    /// instruction instead of fused superinstructions. Both produce
    /// bit-identical measurements; this is a debugging escape hatch for
    /// fusion regressions (`--reference-exec` in the harness).
    pub reference_exec: bool,
}

impl WasmVmConfig {
    /// A standalone default suitable for unit tests: reference engine
    /// profile, desktop cycle time, no toolchain overhead.
    pub fn reference() -> Self {
        WasmVmConfig {
            profile: WasmEngineProfile::reference(),
            tier_policy: TierPolicy::Default,
            cycle_time_ns: wb_env::calibration::DESKTOP_CYCLE_NS,
            exec_overhead: 1.0,
            limits: ResourceLimits::default(),
            reference_exec: false,
        }
    }

    /// Derive a config from an environment profile.
    pub fn for_env(env: &wb_env::EnvProfile) -> Self {
        WasmVmConfig {
            profile: env.wasm,
            tier_policy: TierPolicy::Default,
            cycle_time_ns: env.cycle_time_ns,
            exec_overhead: 1.0,
            limits: ResourceLimits::default(),
            reference_exec: false,
        }
    }

    /// The part of this config that execution reads (see
    /// `Instance::note_hotness`); everything else only prices the run.
    pub fn projection(&self) -> WasmExecProjection {
        WasmExecProjection {
            limits: self.limits,
            reference_exec: self.reference_exec,
            bands: Bands::wasm(self.profile.tier_up_threshold),
        }
    }

    /// The price side of this config: the tier policy and the tier-up
    /// threshold choose the tiers here, not during execution.
    pub(crate) fn prices(&self) -> PriceList<'_> {
        PriceList {
            engine: EnginePrices::Wasm(&self.profile),
            cycle_time_ns: self.cycle_time_ns,
            exec_overhead: self.exec_overhead,
            tiering: match self.tier_policy {
                TierPolicy::Default => Tiering::TierUp {
                    threshold: self.profile.tier_up_threshold,
                },
                TierPolicy::BasicOnly => Tiering::LowerOnly,
                TierPolicy::OptimizingOnly => Tiering::UpperOnly,
            },
        }
    }
}

/// What execution reads of a [`WasmVmConfig`]: two configs with equal
/// projections execute a module identically and differ only in price.
/// The tier policy and the tier-up threshold are not part of it: a run
/// records hotness bands, and pricing turns them into tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WasmExecProjection {
    /// Resource ceilings.
    pub limits: ResourceLimits,
    /// Fusion-off lowering instead of fused micro-ops.
    pub reference_exec: bool,
    /// The hotness boundaries the run's op counts are banded by: every
    /// calibrated tier-up threshold plus the config's own.
    pub bands: Bands,
}

/// Per-function hotness state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FuncState {
    /// Band boundaries the hotness has reached.
    pub band: usize,
    pub hotness: u64,
    /// The function's row of region counters in `Instance::counters` for
    /// its current band, once it has run in it.
    pub row: Option<usize>,
}

/// Context handed to host functions.
pub struct HostCtx<'a> {
    /// The instance's linear memory, if declared.
    pub memory: Option<&'a mut LinearMemory>,
    /// Console-style output sink (what the page's JS would log).
    pub output: &'a mut Vec<String>,
}

/// A bound host (JavaScript) function.
pub type HostFn = Box<dyn FnMut(&mut HostCtx<'_>, &[Value]) -> Result<Option<Value>, Trap>>;

/// Memory accounting snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemoryStats {
    /// Current linear memory size in bytes (monotonic — never shrinks).
    pub linear_bytes: u64,
    /// Number of `memory.grow` operations executed.
    pub grow_count: u64,
    /// Total pages added by grows.
    pub grown_pages: u64,
}

/// Everything an execution did, unpriced and untiered: its discrete
/// events in order and its retired operations per hotness band.
/// [`ExecutionRecord::price`] turns it into an [`ExecutionReport`] for
/// any price list, tier policy and tier-up threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionRecord {
    /// Discrete events (load, compile, band crossing, grow, crossing) in
    /// order.
    pub charges: ChargeRecord,
    /// Retired ops per hotness band; pricing sums them into
    /// `[baseline, optimizing]` tier counts.
    pub band_counts: BandCounts,
    /// Linear memory statistics.
    pub memory: MemoryStats,
    /// Fine-grained arithmetic profile (Table 12).
    pub arith: ArithCounts,
    /// Host-boundary crossings.
    pub context_switches: u64,
}

impl ExecutionRecord {
    /// Price this record with `config`'s engine profile, cost table,
    /// cycle time, toolchain overhead, tier policy and threshold.
    pub fn price(&self, config: &WasmVmConfig) -> ExecutionReport {
        let priced = wb_env::price(&config.prices(), &self.charges, &self.band_counts);
        let [baseline, optimizing, _] = priced.tiers;
        ExecutionReport {
            total: priced.clock.now(),
            clock: priced.clock,
            counts: baseline.merged(&optimizing),
            baseline_counts: baseline,
            memory: self.memory,
            arith: self.arith,
            tier_ups: priced.tier_ups,
            context_switches: self.context_switches,
        }
    }
}

/// Everything measured about an execution.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Total virtual time, including load/compile/exec/grow/switch.
    pub total: Nanos,
    /// Time attribution breakdown.
    pub clock: VirtualClock,
    /// Retired operations by class, across tiers.
    pub counts: OpCounts,
    /// Retired operations executed in the baseline tier only.
    pub baseline_counts: OpCounts,
    /// Linear memory statistics.
    pub memory: MemoryStats,
    /// Fine-grained arithmetic profile (Table 12).
    pub arith: ArithCounts,
    /// Functions that tiered up at runtime.
    pub tier_ups: u32,
    /// Host-boundary crossings charged.
    pub context_switches: u64,
}

/// An instantiated module ready to execute.
pub struct Instance {
    pub(crate) prepared: Arc<PreparedModule>,
    pub(crate) config: WasmVmConfig,
    pub(crate) memory: Option<LinearMemory>,
    /// Global values as untagged bits, typed by the module's globals.
    pub(crate) globals: Vec<u64>,
    /// The value stack every frame of a run lives on (see `exec.rs`),
    /// kept between runs for its capacity. A trap may leave it dirty, so
    /// each run from the embedder starts it empty.
    pub(crate) stack: Vec<u64>,
    pub(crate) table: Vec<Option<u32>>,
    pub(crate) func_state: Vec<FuncState>,
    /// The host functions the imports name, one per distinct
    /// `"module.field"`, resolved at instantiation (`None` when the
    /// embedder did not provide it: calling it traps).
    pub(crate) hostfns: Vec<Option<HostFn>>,
    /// Each import's index in `hostfns`.
    pub(crate) host_slots: Vec<usize>,
    /// Region entries per function, band and region (see `exec.rs`).
    pub(crate) counters: RegionCounters,
    /// Op counts per hotness band, over the boundaries of
    /// [`WasmExecProjection::bands`], that no region counter holds: the
    /// charged part of a region that trapped.
    pub(crate) band_counts: BandCounts,
    /// Table 12 counts no region counter holds, in
    /// [`ArithCounts::columns`] order.
    pub(crate) arith: [u64; 7],
    pub(crate) charges: ChargeRecord,
    pub(crate) steps: u64,
    pub(crate) context_switches: u64,
    /// Console output produced through host functions.
    pub output: Vec<String>,
}

impl Instance {
    /// Instantiate from a binary, charging decode + validate + initial
    /// compile costs (baseline or optimizing, chosen at pricing) — the
    /// Wasm "load" phase the paper contrasts with JS parsing (§2.2.2).
    pub fn instantiate(
        bytes: &[u8],
        config: WasmVmConfig,
        hostfns: HashMap<String, HostFn>,
    ) -> Result<Instance, Trap> {
        let module = decode_module(bytes).map_err(|e| Trap::Host {
            message: format!("decode failed: {e}"),
        })?;
        let prepared = Arc::new(PreparedModule::new(module));
        Self::instantiate_prepared(prepared, bytes.len(), config, hostfns)
    }

    /// Instantiate from an already-prepared module, charging the same
    /// virtual load/compile cost sequence as [`Instance::instantiate`]
    /// would for the `byte_len`-byte binary the preparation came from.
    ///
    /// This is the cached-artifact fast path: the *wall-clock* decode,
    /// validate and side-table work is skipped, but the *virtual* clock is
    /// charged identically, so measurements are bit-identical to the
    /// uncached path.
    pub fn instantiate_prepared(
        prepared: Arc<PreparedModule>,
        byte_len: usize,
        config: WasmVmConfig,
        hostfns: HashMap<String, HostFn>,
    ) -> Result<Instance, Trap> {
        let mut inst = Self::from_prepared(prepared, config, hostfns)?;
        inst.charge(Charge::WasmLoad {
            bytes: byte_len as u64,
        });
        inst.charge(Charge::WasmCompile {
            units: inst.prepared.module.instr_count() as u64,
        });
        inst.run_start()?;
        Ok(inst)
    }

    /// Build an instance of an already-decoded module without charging
    /// any virtual time (see [`Instance::from_prepared`]); a module that
    /// does not validate fails with [`Trap::Host`]. Used by tests and by
    /// callers who track encode size separately.
    pub fn from_module(
        module: Module,
        config: WasmVmConfig,
        hostfns: HashMap<String, HostFn>,
    ) -> Result<Instance, Trap> {
        Self::from_prepared(Arc::new(PreparedModule::new(module)), config, hostfns)
    }

    /// Build a fresh instance over a shared [`PreparedModule`] without
    /// charging any virtual time and without running the start function.
    /// A module that does not validate fails with [`Trap::Host`].
    /// Memory, globals, table and data segments are (re)initialized, so
    /// successive instances from one preparation are independent. Each
    /// import is resolved once, here, to its `"module.field"` entry of
    /// `hostfns`; an import with no entry traps with
    /// [`Trap::MissingImport`] when it is called.
    pub fn from_prepared(
        prepared: Arc<PreparedModule>,
        config: WasmVmConfig,
        hostfns: HashMap<String, HostFn>,
    ) -> Result<Instance, Trap> {
        if let Err(e) = &prepared.validation {
            return Err(Trap::Host {
                message: format!("validation failed: {e}"),
            });
        }
        let module = &prepared.module;
        let mut memory = module
            .memory
            .as_ref()
            .map(|spec| LinearMemory::new(spec.limits));
        // The embedder memory ceiling applies to the *initial* allocation
        // too: a module whose declared minimum already exceeds the limit
        // fails instantiation, as a browser tab would under a memory cap.
        if let (Some(mem), Some(limit)) = (memory.as_ref(), config.limits.max_memory_bytes) {
            let requested_bytes = mem.size_bytes() as u64;
            if requested_bytes > limit {
                return Err(Trap::MemoryLimitExceeded {
                    requested_bytes,
                    limit,
                });
            }
        }
        let globals = module
            .globals
            .iter()
            .map(|g| const_bits_of(&g.init).unwrap_or(0))
            .collect();
        let mut table: Vec<Option<u32>> = match &module.table {
            Some(t) => vec![None; t.limits.min as usize],
            None => Vec::new(),
        };
        for el in &module.elements {
            let start = el.offset as usize;
            let end = start + el.funcs.len();
            if end > table.len() {
                return Err(Trap::ElementSegmentOutOfBounds);
            }
            for (i, f) in el.funcs.iter().enumerate() {
                table[start + i] = Some(*f);
            }
        }
        let func_state = vec![
            FuncState {
                band: 0,
                hotness: 0,
                row: None,
            };
            module.functions.len()
        ];
        let mut names: Vec<String> = Vec::new();
        let host_slots = module
            .imports
            .iter()
            .map(|imp| {
                let name = format!("{}.{}", imp.module, imp.field);
                names.iter().position(|n| *n == name).unwrap_or_else(|| {
                    names.push(name);
                    names.len() - 1
                })
            })
            .collect();
        let mut hostfns = hostfns;
        let hostfns = names.iter().map(|name| hostfns.remove(name)).collect();
        for d in &module.data {
            let mem = memory.as_mut().ok_or(Trap::DataSegmentOutOfBounds)?;
            mem.write(d.offset as u64, &d.bytes)
                .map_err(|_| Trap::DataSegmentOutOfBounds)?;
        }
        let band_counts = BandCounts::new(config.projection().bands);
        Ok(Instance {
            prepared,
            config,
            memory,
            globals,
            stack: Vec::new(),
            table,
            func_state,
            hostfns,
            host_slots,
            counters: RegionCounters::default(),
            band_counts,
            arith: [0; 7],
            charges: ChargeRecord::new(),
            steps: 0,
            context_switches: 0,
            output: Vec::new(),
        })
    }

    /// Check the embedder memory ceiling before a `memory.grow` of
    /// `delta` pages. Called identically (same program point, before the
    /// grow is attempted) with fusion on and off, so limited runs stay
    /// bit-identical between them. With no ceiling configured
    /// this is a no-op.
    #[inline]
    pub(crate) fn check_grow_limit(&self, delta: u32) -> Result<(), Trap> {
        if let Some(limit) = self.config.limits.max_memory_bytes {
            let current = self.memory.as_ref().map_or(0, |m| m.size_bytes() as u64);
            let requested_bytes = current + u64::from(delta) * wb_wasm::PAGE_SIZE as u64;
            if requested_bytes > limit {
                return Err(Trap::MemoryLimitExceeded {
                    requested_bytes,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Record one discrete event; [`wb_env::price`] prices it later.
    #[inline]
    pub(crate) fn charge(&mut self, charge: Charge) {
        self.charges.push(charge);
    }

    fn run_start(&mut self) -> Result<(), Trap> {
        if let Some(start) = self.prepared.module.start {
            self.call_from_embedder(start, &[], None)?;
        }
        Ok(())
    }

    /// Run function `func_index` on `args` from an empty value stack (a
    /// trap may have left it dirty) and read back its `result`. Fuel is
    /// checked at region heads, against the regions already run, so a
    /// region that overran the budget runs to its end or to a trap;
    /// per-op counting would have stopped inside it, so either way the
    /// call ran out of steps.
    fn call_from_embedder(
        &mut self,
        func_index: u32,
        args: &[Value],
        result: Option<ValType>,
    ) -> Result<Option<Value>, Trap> {
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        stack.extend(args.iter().map(|v| value_bits(*v)));
        let r = self.call_function(func_index, &mut stack, 0);
        let r = r.map(|()| Some(bits_to_value(result?, *stack.first()?)));
        self.stack = stack;
        if self.steps > self.config.limits.fuel_budget() {
            return Err(Trap::StepBudgetExhausted);
        }
        r
    }

    /// Invoke an exported function from "JavaScript", charging the
    /// entry/exit context switches (§4.5).
    pub fn invoke(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, Trap> {
        let func_index = self
            .prepared
            .module
            .exported_func(name)
            .ok_or_else(|| Trap::NoSuchExport { name: name.into() })?;
        let ty = self
            .prepared
            .module
            .func_type(func_index)
            .ok_or_else(|| Trap::NoSuchExport { name: name.into() })?;
        if ty.params.len() != args.len() {
            return Err(Trap::BadInvokeArgs {
                detail: format!("expected {} args, got {}", ty.params.len(), args.len()),
            });
        }
        for (i, (a, want)) in args.iter().zip(ty.params.iter()).enumerate() {
            if a.ty() != *want {
                return Err(Trap::BadInvokeArgs {
                    detail: format!("arg {i}: expected {:?}, got {:?}", want, a.ty()),
                });
            }
        }
        let result = ty.results.first().copied();
        self.cross_boundary();
        let r = self.call_from_embedder(func_index, args, result);
        self.cross_boundary();
        r
    }

    pub(crate) fn cross_boundary(&mut self) {
        self.context_switches += 1;
        self.charge(Charge::ContextSwitch);
    }

    /// The unpriced record of everything executed so far.
    pub fn record(&self) -> ExecutionRecord {
        let memory = match &self.memory {
            Some(m) => MemoryStats {
                linear_bytes: m.size_bytes() as u64,
                grow_count: m.grow_count,
                grown_pages: m.grown_pages,
            },
            None => MemoryStats::default(),
        };
        let (mut band_counts, mut arith) = (self.band_counts.clone(), self.arith);
        self.counters
            .fold(|f| self.regions(f), &mut band_counts.ops, &mut arith);
        ExecutionRecord {
            charges: self.charges.clone(),
            band_counts,
            memory,
            arith: ArithCounts::from_columns(arith),
            context_switches: self.context_switches,
        }
    }

    /// The region profile behind [`Instance::record`]: how often each
    /// region of each defined function was entered in each band, with
    /// the source instructions it covers. Multiplying each entry's hits
    /// by its instructions' classes gives the record's op counts, less
    /// the charged part of a region that trapped.
    pub fn region_profile(&self) -> Vec<RegionHits> {
        self.counters.profile(|f| self.regions(f))
    }

    /// The regions defined function `def_index` runs in.
    fn regions(&self, def_index: usize) -> &RegionTable {
        &self
            .prepared
            .lowered(def_index, !self.config.reference_exec)
            .regions
    }

    /// Current measurement snapshot: the [`Instance::record`] priced with
    /// this instance's config.
    pub fn report(&self) -> ExecutionReport {
        self.record().price(&self.config)
    }

    /// Look up the numeric value of an exported global (test/IO helper).
    pub fn exported_global(&self, name: &str) -> Option<Value> {
        self.prepared
            .module
            .exports
            .iter()
            .find_map(|e| match e.kind {
                wb_wasm::ExportKind::Global(i) if e.name == name => {
                    let ty = self.prepared.module.globals.get(i as usize)?.ty.ty;
                    Some(bits_to_value(ty, *self.globals.get(i as usize)?))
                }
                _ => None,
            })
    }

    /// Read bytes from linear memory (embedder API, like a JS typed-array
    /// view over `WebAssembly.Memory`).
    pub fn read_memory(&self, addr: u64, len: usize) -> Result<Vec<u8>, Trap> {
        let mem = self.memory.as_ref().ok_or(Trap::MemoryOutOfBounds {
            addr,
            width: len as u32,
        })?;
        mem.read(addr, len as u32)
            .map(|s| s.to_vec())
            .map_err(|_| Trap::MemoryOutOfBounds {
                addr,
                width: len as u32,
            })
    }
}
