//! Run one program in one configuration and collect a [`Measurement`]
//! (§3.3–3.4): virtual execution time with attribution, DevTools-model
//! memory, code size, and instruction counts.

use crate::artifacts::{
    ArtifactCache, ArtifactKey, ArtifactKind, CachedJs, CachedNative, CachedWasm, ExecKey,
    RecordedJs, RecordedWasm,
};
use crate::host::standard_imports;
use std::sync::Arc;
use wb_env::{
    calibration, ArithCounts, Environment, JitMode, Nanos, OpCounts, ResourceLimits, TierPolicy,
    Toolchain, VirtualClock,
};
use wb_jsvm::{JsError, JsRecord, JsVm, JsVmConfig};
use wb_minic::backend::native::NativeTrap;
use wb_minic::{CompileError, Compiler, FrontEnd, OptLevel};
use wb_wasm_vm::{ExecutionRecord, Instance, PreparedModule, Trap, WasmVmConfig};

/// Everything one run produces (§3.4's two metrics plus attribution).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Total virtual time between the instrumentation timers.
    pub time: Nanos,
    /// Attribution breakdown (load/compile/exec/GC/grow/context switch).
    pub clock: VirtualClock,
    /// Reported memory, bytes — engine baseline + language-model usage
    /// (Wasm: committed linear memory, never reclaimed; JS: live GC heap,
    /// typed-array backing stores external), matching DevTools semantics.
    pub memory_bytes: u64,
    /// Artifact size in bytes (Wasm binary / JS source / native estimate).
    pub code_size: u64,
    /// Retired operations by class.
    pub counts: OpCounts,
    /// Fine-grained arithmetic profile (Table 12).
    pub arith: ArithCounts,
    /// Program output (checksums), for cross-backend verification.
    pub output: Vec<String>,
    /// JS↔Wasm boundary crossings (Wasm runs only).
    pub context_switches: u64,
}

/// A failed run.
#[derive(Debug)]
pub enum RunError {
    /// Compilation failed.
    Compile(CompileError),
    /// The Wasm VM trapped.
    Trap(Trap),
    /// The JS engine raised.
    Js(wb_jsvm::JsError),
    /// The native evaluator trapped.
    Native(wb_minic::backend::native::NativeTrap),
    /// The worker executing the cell panicked; the payload is the panic
    /// message recovered at the isolation boundary
    /// (`catch_unwind` in the grid engine).
    Panic(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Compile(e) => write!(f, "compile error: {e}"),
            RunError::Trap(e) => write!(f, "wasm trap: {e}"),
            RunError::Js(e) => write!(f, "js error: {e}"),
            RunError::Native(e) => write!(f, "native trap: {e}"),
            RunError::Panic(msg) => write!(f, "worker panic: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Coarse, backend-independent classification of a failed run — the
/// vocabulary of the trap-parity tests and the grid's partial-results
/// CSV. Each backend reports faults in its own enum ([`Trap`],
/// [`JsError`], [`NativeTrap`]); `TrapKind` is the projection under
/// which equivalent faults compare equal across backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrapKind {
    /// Integer division or remainder by zero.
    DivByZero,
    /// Out-of-bounds memory / array / table access.
    OutOfBounds,
    /// `INT_MIN / -1` style integer overflow.
    IntegerOverflow,
    /// Call-stack depth limit exceeded.
    StackOverflow,
    /// Fuel (step budget, [`ResourceLimits::fuel`]) exhausted.
    FuelExhausted,
    /// Memory ceiling ([`ResourceLimits::max_memory_bytes`]) exceeded.
    MemoryLimit,
    /// Compilation (front end or backend) failed.
    Compile,
    /// A worker panicked (caught at the isolation boundary).
    Panic,
    /// Anything else: host errors, missing exports, unreachable, ….
    Other,
}

impl TrapKind {
    /// Stable kebab-case name, used in CSV annotations.
    pub fn as_str(self) -> &'static str {
        match self {
            TrapKind::DivByZero => "div-by-zero",
            TrapKind::OutOfBounds => "out-of-bounds",
            TrapKind::IntegerOverflow => "integer-overflow",
            TrapKind::StackOverflow => "stack-overflow",
            TrapKind::FuelExhausted => "fuel-exhausted",
            TrapKind::MemoryLimit => "memory-limit",
            TrapKind::Compile => "compile-error",
            TrapKind::Panic => "panic",
            TrapKind::Other => "other",
        }
    }
}

impl std::fmt::Display for TrapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl RunError {
    /// The backend-independent fault class. The trap-parity suite
    /// asserts that the same program faults with the same `TrapKind` on
    /// every backend that can express the fault.
    pub fn kind(&self) -> TrapKind {
        match self {
            RunError::Compile(_) => TrapKind::Compile,
            RunError::Panic(_) => TrapKind::Panic,
            RunError::Trap(t) => match t {
                Trap::DivByZero => TrapKind::DivByZero,
                Trap::MemoryOutOfBounds { .. } | Trap::TableOutOfBounds => TrapKind::OutOfBounds,
                Trap::IntegerOverflow => TrapKind::IntegerOverflow,
                Trap::StackOverflow => TrapKind::StackOverflow,
                Trap::StepBudgetExhausted => TrapKind::FuelExhausted,
                Trap::MemoryLimitExceeded { .. } => TrapKind::MemoryLimit,
                _ => TrapKind::Other,
            },
            RunError::Js(e) => match e {
                JsError::DivByZero => TrapKind::DivByZero,
                JsError::OutOfBounds { .. } => TrapKind::OutOfBounds,
                JsError::StackOverflow => TrapKind::StackOverflow,
                JsError::StepBudgetExhausted => TrapKind::FuelExhausted,
                JsError::MemoryLimitExceeded { .. } => TrapKind::MemoryLimit,
                JsError::Lex { .. } | JsError::Parse { .. } | JsError::Compile { .. } => {
                    TrapKind::Compile
                }
                _ => TrapKind::Other,
            },
            RunError::Native(e) => match e {
                NativeTrap::DivByZero => TrapKind::DivByZero,
                NativeTrap::OutOfBounds { .. } => TrapKind::OutOfBounds,
                NativeTrap::StackOverflow => TrapKind::StackOverflow,
                NativeTrap::StepBudget => TrapKind::FuelExhausted,
                NativeTrap::MemoryLimit { .. } => TrapKind::MemoryLimit,
                _ => TrapKind::Other,
            },
        }
    }
}

/// A failed run plus whatever was measured before the fault.
///
/// `error` says what went wrong; `partial` carries the virtual-cost
/// state the VM had accumulated up to the trap, when it got far enough
/// to have any (compile errors and panics report nothing). The grid's
/// `--keep-going` mode annotates failed cells from this.
#[derive(Debug)]
pub struct RunFailure {
    /// What went wrong.
    pub error: RunError,
    /// Measurement state at the point of failure, if the VM was running.
    pub partial: Option<Box<Measurement>>,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for RunFailure {}

impl From<RunError> for RunFailure {
    fn from(error: RunError) -> Self {
        RunFailure {
            error,
            partial: None,
        }
    }
}

impl From<CompileError> for RunFailure {
    fn from(e: CompileError) -> Self {
        RunError::Compile(e).into()
    }
}

impl From<Trap> for RunFailure {
    fn from(e: Trap) -> Self {
        RunError::Trap(e).into()
    }
}

impl From<JsError> for RunFailure {
    fn from(e: JsError) -> Self {
        RunError::Js(e).into()
    }
}

impl From<CompileError> for RunError {
    fn from(e: CompileError) -> Self {
        RunError::Compile(e)
    }
}

impl From<Trap> for RunError {
    fn from(e: Trap) -> Self {
        RunError::Trap(e)
    }
}

impl From<wb_jsvm::JsError> for RunError {
    fn from(e: wb_jsvm::JsError) -> Self {
        RunError::Js(e)
    }
}

/// Configuration of a Wasm run: compile `source` with the toolchain at
/// `level`, instantiate in `env`, call `entry`.
#[derive(Debug, Clone)]
pub struct WasmSpec<'a> {
    /// MiniC source.
    pub source: &'a str,
    /// Dataset `-D` defines (§3.2).
    pub defines: Vec<(String, String)>,
    /// Optimization level.
    pub level: OptLevel,
    /// Cheerp or Emscripten.
    pub toolchain: Toolchain,
    /// Browser × platform.
    pub env: Environment,
    /// Tier configuration (Table 11 flags).
    pub tier_policy: TierPolicy,
    /// `cheerp-linear-heap-size` override.
    pub heap_limit: Option<u64>,
    /// Run the VM with fusion off: one micro-op per instruction instead
    /// of fused superinstructions, in the same dispatch loop
    /// (`--reference-exec`). Measurements are identical either way; this
    /// is the escape hatch that proves it.
    pub reference_exec: bool,
    /// Resource ceilings (fuel, memory, call depth). The default is
    /// unlimited fuel/memory, so default-limit runs are bit-identical to
    /// runs from before the limit layer existed — limits are *checked*
    /// on existing virtual-cost events, never charged.
    pub limits: ResourceLimits,
    /// Entry function.
    pub entry: &'a str,
}

impl<'a> WasmSpec<'a> {
    /// The study default: Cheerp, `-O2`, desktop Chrome, default tiers.
    pub fn new(source: &'a str) -> Self {
        WasmSpec {
            source,
            defines: Vec::new(),
            level: OptLevel::O2,
            toolchain: Toolchain::Cheerp,
            env: Environment::desktop_chrome(),
            tier_policy: TierPolicy::Default,
            heap_limit: Some(256 << 20),
            reference_exec: false,
            limits: ResourceLimits::default(),
            entry: "bench_main",
        }
    }
}

/// Configuration of a JS run.
#[derive(Debug, Clone)]
pub struct JsSpec<'a> {
    /// MiniC source (for [`run_compiled_js`]) or MiniJS source (for
    /// [`run_manual_js`]).
    pub source: &'a str,
    /// Dataset defines (compiled runs only).
    pub defines: Vec<(String, String)>,
    /// Optimization level (compiled runs only).
    pub level: OptLevel,
    /// Toolchain (compiled runs only).
    pub toolchain: Toolchain,
    /// Browser × platform.
    pub env: Environment,
    /// JIT enabled/disabled (`--no-opt`).
    pub jit: JitMode,
    /// Run with fusion off: each VM lowers without fused forms and runs
    /// the same dispatch loop (`--reference-exec`); measurement-invisible
    /// by construction.
    pub reference_exec: bool,
    /// Resource ceilings (fuel, live-heap memory, call depth); the
    /// default is unlimited fuel/memory, bit-identical to the pre-limit
    /// engine.
    pub limits: ResourceLimits,
    /// Compile with wasm-parity trap checks (checked integer division
    /// and typed-array bounds). Changes generated code — part of the
    /// artifact cache key — and exists for the trap-parity fixtures;
    /// study runs never set it.
    pub trap_checks: bool,
    /// Entry function.
    pub entry: &'a str,
}

impl<'a> JsSpec<'a> {
    /// The study default.
    pub fn new(source: &'a str) -> Self {
        JsSpec {
            source,
            defines: Vec::new(),
            level: OptLevel::O2,
            toolchain: Toolchain::Cheerp,
            env: Environment::desktop_chrome(),
            jit: JitMode::Enabled,
            reference_exec: false,
            limits: ResourceLimits::default(),
            trap_checks: false,
            entry: "bench_main",
        }
    }
}

fn compiler_for(
    defines: &[(String, String)],
    level: OptLevel,
    toolchain: Toolchain,
    heap: Option<u64>,
) -> Compiler {
    let mut c = Compiler::new(toolchain).opt_level(level);
    if let Some(h) = heap {
        c = c.heap_limit(h);
    }
    for (k, v) in defines {
        c = c.define(k, v.clone());
    }
    c
}

/// The front end of `(source, defines)` for `compiler`: fetched from
/// `cache` and cloned when there is one (see [`ArtifactCache::front_end`]),
/// else built. Only the front end's inputs are in its key, so one build
/// serves every level, toolchain and target.
fn front_end(
    compiler: &Compiler,
    source: &str,
    defines: &[(String, String)],
    cache: Option<&ArtifactCache>,
) -> Result<FrontEnd, CompileError> {
    match cache {
        Some(cache) => {
            let key = ArtifactKey::front_end(source, defines);
            let front = cache.front_end(key, || compiler.frontend(source))?;
            Ok(FrontEnd::clone(&front))
        }
        None => compiler.frontend(source),
    }
}

/// Reported Wasm memory: engine baseline + committed linear memory, with
/// the engine's large-heap over-commit slack (Table 6's Firefox XL
/// crossover).
pub fn reported_wasm_memory(env: Environment, linear_bytes: u64) -> u64 {
    let profile = env.profile();
    let slack_extra = if linear_bytes > calibration::GROW_SLACK_THRESHOLD_BYTES {
        ((linear_bytes - calibration::GROW_SLACK_THRESHOLD_BYTES) as f64
            * (profile.wasm_grow_slack - 1.0)) as u64
    } else {
        0
    };
    profile.wasm.baseline_memory_bytes + linear_bytes + slack_extra
}

/// Compile (or fetch from `cache` under `key`) the Wasm artifact for a
/// spec. The cached artifact goes through the same
/// encode→decode→validate roundtrip as [`Instance::instantiate`], so
/// later execution over the shared [`PreparedModule`] is bit-identical
/// to the uncached path.
fn wasm_artifact(
    spec: &WasmSpec<'_>,
    key: ArtifactKey,
    cache: Option<&ArtifactCache>,
) -> Result<Arc<CachedWasm>, RunFailure> {
    let build = || -> Result<CachedWasm, RunFailure> {
        let compiler = compiler_for(&spec.defines, spec.level, spec.toolchain, spec.heap_limit);
        let front = front_end(&compiler, spec.source, &spec.defines, cache)?;
        let out = compiler.compile_wasm_from(front)?;
        let bytes = wb_wasm::encode_module(&out.module);
        let module = wb_wasm::decode_module(&bytes).map_err(|e| Trap::Host {
            message: format!("decode failed: {e}"),
        })?;
        Ok(CachedWasm {
            bytes,
            strings: out.strings,
            prepared: Arc::new(PreparedModule::new(module)),
        })
    };
    match cache {
        Some(cache) => cache.wasm(key, build),
        None => build().map(Arc::new),
    }
}

/// Run a compiled-to-Wasm benchmark end to end.
pub fn run_wasm(spec: &WasmSpec<'_>) -> Result<Measurement, RunError> {
    run_wasm_with(spec, None)
}

/// [`run_wasm`], optionally sharing compile artifacts through `cache`.
/// Caching skips real decode/validate/side-table work but replays the
/// same *virtual* load/compile charges, so the Measurement is
/// bit-identical either way.
pub fn run_wasm_with(
    spec: &WasmSpec<'_>,
    cache: Option<&ArtifactCache>,
) -> Result<Measurement, RunError> {
    try_run_wasm_with(spec, cache).map_err(|f| f.error)
}

/// [`run_wasm_with`], but a failed run also reports the measurement
/// state at the point of failure (see [`RunFailure`]).
///
/// With a cache, a successful execution is memoized under (artifact,
/// entry, [`WasmVmConfig::projection`]), and every cell that shares
/// that key is priced from its record instead of executing again.
pub fn try_run_wasm_with(
    spec: &WasmSpec<'_>,
    cache: Option<&ArtifactCache>,
) -> Result<Measurement, RunFailure> {
    let key = ArtifactKey::compute(
        ArtifactKind::Wasm,
        spec.source,
        &spec.defines,
        spec.level,
        spec.toolchain,
        spec.heap_limit,
        false,
    );
    let artifact = wasm_artifact(spec, key, cache)?;
    let profile = spec.env.profile();
    let mut config = WasmVmConfig::for_env(&profile);
    config.tier_policy = spec.tier_policy;
    config.reference_exec = spec.reference_exec;
    config.exec_overhead = calibration::toolchain_exec_overhead(spec.toolchain);
    config.limits = spec.limits;
    let measure = |record: &ExecutionRecord, output: Vec<String>| {
        let report = record.price(&config);
        Measurement {
            time: report.total,
            clock: report.clock,
            memory_bytes: reported_wasm_memory(spec.env, report.memory.linear_bytes),
            code_size: artifact.bytes.len() as u64,
            counts: report.counts,
            arith: report.arith,
            output,
            context_switches: report.context_switches,
        }
    };
    let execute = || -> Result<RecordedWasm, RunFailure> {
        // Deployment (§3.3): the page fetches the binary and instantiates
        // it — decode + validate + baseline compile are charged exactly as
        // `instantiate` would, against the pre-decoded module.
        let mut inst = Instance::instantiate_prepared(
            Arc::clone(&artifact.prepared),
            artifact.bytes.len(),
            config.clone(),
            standard_imports(artifact.strings.clone()),
        )?;
        let run = inst.invoke(spec.entry, &[]);
        let record = inst.record();
        match run {
            Ok(_) => Ok(RecordedWasm {
                record,
                output: inst.output,
            }),
            Err(trap) => Err(RunFailure {
                error: RunError::Trap(trap),
                partial: Some(Box::new(measure(&record, inst.output))),
            }),
        }
    };
    let recorded = match cache {
        Some(cache) => {
            let memo_key = ExecKey {
                artifact: key,
                entry: spec.entry.to_string(),
                projection: config.projection(),
            };
            cache.wasm_execution(memo_key, execute)?
        }
        None => Arc::new(execute()?),
    };
    Ok(measure(&recorded.record, recorded.output.clone()))
}

/// Run a compiled-to-JavaScript benchmark end to end.
pub fn run_compiled_js(spec: &JsSpec<'_>) -> Result<Measurement, RunError> {
    run_compiled_js_with(spec, None)
}

/// [`run_compiled_js`], optionally sharing the generated JS source
/// through `cache`.
pub fn run_compiled_js_with(
    spec: &JsSpec<'_>,
    cache: Option<&ArtifactCache>,
) -> Result<Measurement, RunError> {
    try_run_compiled_js_with(spec, cache).map_err(|f| f.error)
}

/// [`run_compiled_js_with`], but a failed run also reports the
/// measurement state at the point of failure (see [`RunFailure`]).
///
/// With a cache, a successful execution that never read the clock is
/// memoized under (artifact, entry, [`JsVmConfig::projection`]), and
/// every cell that shares that key is priced from its record.
pub fn try_run_compiled_js_with(
    spec: &JsSpec<'_>,
    cache: Option<&ArtifactCache>,
) -> Result<Measurement, RunFailure> {
    let build = || -> Result<CachedJs, RunFailure> {
        let compiler = compiler_for(&spec.defines, spec.level, spec.toolchain, None)
            .trap_checks(spec.trap_checks);
        let front = front_end(&compiler, spec.source, &spec.defines, cache)?;
        let out = compiler.compile_js_from(front)?;
        Ok(CachedJs { source: out.source })
    };
    match cache {
        Some(cache) => {
            let key = ArtifactKey::compute(
                ArtifactKind::Js,
                spec.source,
                &spec.defines,
                spec.level,
                spec.toolchain,
                None,
                spec.trap_checks,
            );
            let artifact = cache.js(key, build)?;
            run_js_source(&artifact.source, spec, Some((cache, key)))
        }
        None => run_js_source(&build()?.source, spec, None),
    }
}

/// Run a manually-written MiniJS program (§4.1.2).
pub fn run_manual_js(spec: &JsSpec<'_>) -> Result<Measurement, RunError> {
    try_run_manual_js(spec).map_err(|f| f.error)
}

/// [`run_manual_js`], but a failed run also reports the measurement
/// state at the point of failure (see [`RunFailure`]).
pub fn try_run_manual_js(spec: &JsSpec<'_>) -> Result<Measurement, RunFailure> {
    run_js_source(spec.source, spec, None)
}

/// Run `js_source`, through the execution memo when given one and the
/// script's artifact key.
fn run_js_source(
    js_source: &str,
    spec: &JsSpec<'_>,
    memo: Option<(&ArtifactCache, ArtifactKey)>,
) -> Result<Measurement, RunFailure> {
    let profile = spec.env.profile();
    let mut config = JsVmConfig::for_env(&profile);
    config.jit = spec.jit;
    config.reference_exec = spec.reference_exec;
    config.limits = spec.limits;
    let measure = |record: &JsRecord, output: Vec<String>| {
        let report = record.price(&config);
        Measurement {
            time: report.total,
            clock: report.clock,
            memory_bytes: profile.js.baseline_memory_bytes + report.heap.peak_live_bytes,
            code_size: js_source.len() as u64,
            counts: report.counts,
            arith: report.arith,
            output,
            context_switches: 0,
        }
    };
    // A run the memo may not keep — it failed, or it read the clock and
    // so may have acted on its own price — hands its outcome back as
    // `Err`.
    let execute = || -> Result<RecordedJs, Box<Result<Measurement, RunFailure>>> {
        let mut vm = JsVm::new(config.clone());
        vm.load(js_source).map_err(|e| Box::new(Err(e.into())))?;
        let run = vm.call(spec.entry, &[]);
        let record = vm.record();
        match run {
            Ok(_) if record.clock_reads == 0 => Ok(RecordedJs {
                record,
                output: vm.output,
            }),
            Ok(_) => Err(Box::new(Ok(measure(&record, vm.output)))),
            Err(e) => Err(Box::new(Err(RunFailure {
                error: RunError::Js(e),
                partial: Some(Box::new(measure(&record, vm.output))),
            }))),
        }
    };
    let recorded = match memo {
        Some((cache, artifact)) => {
            let memo_key = ExecKey {
                artifact,
                entry: spec.entry.to_string(),
                projection: config.projection(),
            };
            cache.js_execution(memo_key, execute)
        }
        None => execute().map(Arc::new),
    };
    match recorded {
        Ok(recorded) => Ok(measure(&recorded.record, recorded.output.clone())),
        Err(outcome) => *outcome,
    }
}

/// Run the native (x86 control) build, Fig 6.
pub fn run_native(
    source: &str,
    defines: &[(String, String)],
    level: OptLevel,
    entry: &str,
) -> Result<Measurement, RunError> {
    run_native_with(source, defines, level, entry, None)
}

/// [`run_native`], optionally sharing the compiled program through
/// `cache`.
pub fn run_native_with(
    source: &str,
    defines: &[(String, String)],
    level: OptLevel,
    entry: &str,
    cache: Option<&ArtifactCache>,
) -> Result<Measurement, RunError> {
    try_run_native_with(
        source,
        defines,
        level,
        entry,
        ResourceLimits::default(),
        cache,
    )
    .map_err(|f| f.error)
}

/// [`run_native_with`] under explicit resource limits. Limits apply at
/// *run* time ([`wb_minic::backend::native::NativeProgram::run_with_limits`]),
/// so the compiled program is still shared through the cache across
/// cells with different limits.
pub fn try_run_native_with(
    source: &str,
    defines: &[(String, String)],
    level: OptLevel,
    entry: &str,
    limits: ResourceLimits,
    cache: Option<&ArtifactCache>,
) -> Result<Measurement, RunFailure> {
    let build = || -> Result<CachedNative, RunFailure> {
        let compiler = compiler_for(defines, level, Toolchain::Cheerp, Some(1 << 30));
        let front = front_end(&compiler, source, defines, cache)?;
        Ok(CachedNative {
            prog: compiler.compile_native_from(front)?,
        })
    };
    let artifact = match cache {
        Some(cache) => {
            let key = ArtifactKey::compute(
                ArtifactKind::Native,
                source,
                defines,
                level,
                Toolchain::Cheerp,
                Some(1 << 30),
                false,
            );
            cache.native(key, build)?
        }
        None => Arc::new(build()?),
    };
    let prog = &artifact.prog;
    let out = prog
        .run_with_limits(entry, &[], limits)
        .map_err(|e| RunFailure::from(RunError::Native(e)))?;
    let mut clock = VirtualClock::new();
    clock.advance(out.exec_time, wb_env::TimeBucket::Exec);
    Ok(Measurement {
        time: out.exec_time,
        clock,
        memory_bytes: out.data_bytes,
        code_size: prog.code_size(),
        counts: out.counts,
        arith: ArithCounts::default(),
        output: out.output,
        context_switches: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_env::{Browser, Platform};

    const KERNEL: &str = "#define N 24\n\
        double A[N][N];\n\
        void bench_main() {\n\
          for (int i = 0; i < N; i++)\n\
            for (int j = 0; j < N; j++)\n\
              A[i][j] = (double)(i * j % N) / N;\n\
          double s = 0.0;\n\
          for (int i = 0; i < N; i++)\n\
            for (int j = 0; j < N; j++) s += A[i][j] * A[j][i];\n\
          print_double(s);\n\
        }";

    #[test]
    fn wasm_and_js_runs_agree_on_output() {
        let w = run_wasm(&WasmSpec::new(KERNEL)).unwrap();
        let j = run_compiled_js(&JsSpec::new(KERNEL)).unwrap();
        assert_eq!(w.output, j.output);
        assert!(w.time.0 > 0.0 && j.time.0 > 0.0);
        assert!(w.code_size > 0 && j.code_size > 0);
    }

    #[test]
    fn wasm_memory_includes_engine_baseline_plus_linear() {
        let w = run_wasm(&WasmSpec::new(KERNEL)).unwrap();
        let baseline = Environment::desktop_chrome()
            .profile()
            .wasm
            .baseline_memory_bytes;
        assert!(w.memory_bytes > baseline);
        assert!(
            w.memory_bytes < baseline + (1 << 20),
            "small kernel stays small"
        );
    }

    #[test]
    fn js_memory_is_flat_for_typed_array_kernels() {
        let j = run_compiled_js(&JsSpec::new(KERNEL)).unwrap();
        let baseline = Environment::desktop_chrome()
            .profile()
            .js
            .baseline_memory_bytes;
        // Typed-array backing is external: reported stays near baseline.
        assert!(j.memory_bytes < baseline + 64 * 1024, "{}", j.memory_bytes);
    }

    #[test]
    fn environments_change_the_numbers() {
        let chrome = run_wasm(&WasmSpec::new(KERNEL)).unwrap();
        let mut spec = WasmSpec::new(KERNEL);
        spec.env = Environment::new(Browser::Firefox, Platform::Desktop);
        let firefox = run_wasm(&spec).unwrap();
        assert_ne!(chrome.time.0, firefox.time.0);
        assert_eq!(
            chrome.output, firefox.output,
            "results identical, time differs"
        );
    }

    #[test]
    fn native_control_runs() {
        let n = run_native(KERNEL, &[], OptLevel::O2, "bench_main").unwrap();
        let w = run_wasm(&WasmSpec::new(KERNEL)).unwrap();
        assert_eq!(n.output, w.output);
    }

    #[test]
    fn deterministic_runs() {
        let a = run_wasm(&WasmSpec::new(KERNEL)).unwrap();
        let b = run_wasm(&WasmSpec::new(KERNEL)).unwrap();
        assert_eq!(a.time.0.to_bits(), b.time.0.to_bits());
        assert_eq!(a.memory_bytes, b.memory_bytes);
    }
}
