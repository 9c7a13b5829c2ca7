//! The traced run: each cell repeats the sequence of `wb_core::measure`
//! stage by stage through the public functions of each crate, with a span
//! around every call, so host time can be attributed per layer from
//! outside the program.

use crate::check::Outcome;
use crate::workloads::{Cell, Target};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;
use wb_core::artifacts::{CachedJs, CachedNative, CachedWasm};
use wb_core::host::standard_imports;
use wb_core::measure::reported_wasm_memory;
use wb_core::{ArtifactCache, ArtifactKey, ArtifactKind, Measurement};
use wb_env::{calibration, ArithCounts, CompilerProfile, TimeBucket, Toolchain, VirtualClock};
use wb_harness::Run;
use wb_jsvm::{JsVm, JsVmConfig};
use wb_minic::backend::wasm::WasmEmitOptions;
use wb_minic::backend::{emit_js_with, emit_wasm, JsEmitOptions, NativeProgram};
use wb_minic::hir::HProgram;
use wb_minic::passes::{run_pipeline, TargetKind};
use wb_minic::{CompileError, Compiler, OptLevel};
use wb_wasm_vm::{Instance, PreparedModule, WasmVmConfig};

/// The entry point every benchmark exports.
const ENTRY: &str = "bench_main";
/// Linear heap limit of study Wasm builds (`Run::try_wasm_with`).
const WASM_HEAP: Option<u64> = Some(256 << 20);
/// Heap limit the native build is keyed with (`try_run_native_with`).
const NATIVE_HEAP: Option<u64> = Some(1 << 30);

/// Name of a cell's root span; its self time is the benchmark's own glue.
pub const ROOT: &str = "cell";

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stage name (`layer.stage`).
    pub name: &'static str,
    /// Start.
    pub start: Instant,
    /// End.
    pub end: Instant,
    /// Index of the enclosing span within the cell.
    pub parent: Option<usize>,
    /// For `core.cache`: whether the lookup hit.
    pub hit: Option<bool>,
}

/// Spans of one cell, kept in memory.
#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn open(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            hit: None,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end = Instant::now();
        self.open.pop();
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.open(name);
        let out = f();
        self.close(span);
        out
    }
}

/// Counts each cell's run produced. They encode virtual semantics and
/// must repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// MiniC compiles (artifact cache misses that built).
    pub compiles: u64,
    /// Encoded Wasm bytes built.
    pub wasm_bytes: u64,
    /// Wasm ops retired.
    pub wasm_ops: u64,
    /// Wasm ops retired in the optimizing tier.
    pub wasm_opt_ops: u64,
    /// Wasm functions that tiered up.
    pub tier_ups: u64,
    /// JS↔Wasm boundary crossings.
    pub context_switches: u64,
    /// JS ops retired.
    pub js_ops: u64,
    /// JS inline-cache hits.
    pub ic_hits: u64,
    /// JS inline-cache misses.
    pub ic_misses: u64,
    /// JS functions JIT-compiled.
    pub jit_compiles: u64,
    /// JS garbage collections.
    pub gc_count: u64,
    /// JS heap allocations.
    pub allocs: u64,
    /// Native ops retired.
    pub native_ops: u64,
    /// Artifact cache hits.
    pub cache_hits: u64,
    /// Artifact cache misses.
    pub cache_misses: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.compiles += o.compiles;
        self.wasm_bytes += o.wasm_bytes;
        self.wasm_ops += o.wasm_ops;
        self.wasm_opt_ops += o.wasm_opt_ops;
        self.tier_ups += o.tier_ups;
        self.context_switches += o.context_switches;
        self.js_ops += o.js_ops;
        self.ic_hits += o.ic_hits;
        self.ic_misses += o.ic_misses;
        self.jit_compiles += o.jit_compiles;
        self.gc_count += o.gc_count;
        self.allocs += o.allocs;
        self.native_ops += o.native_ops;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
    }

    /// Sum over cells.
    pub fn total(cells: &[CellTrace]) -> Counts {
        let mut t = Counts::default();
        for c in cells {
            t.add(&c.counts);
        }
        t
    }
}

/// An artifact this cell built (a cache miss), kept for the
/// compile-equivalence check.
pub enum Built {
    /// A Wasm build.
    Wasm(Arc<CachedWasm>),
    /// A JS build.
    Js(Arc<CachedJs>),
}

/// Everything the traced run of one cell produced.
pub struct CellTrace {
    /// What the cell produced.
    pub outcome: Outcome,
    /// Its spans; the first is the root.
    pub spans: Vec<Span>,
    /// Its counts.
    pub counts: Counts,
    /// The artifact it built, if its lookup missed.
    pub built: Option<Built>,
}

/// Drive every cell stage by stage on `jobs` workers, over one fresh
/// artifact cache. Returns the traces in cell order, when the pass began
/// and its wall seconds.
pub fn stage_pass(cells: &[Cell], jobs: usize) -> (Vec<CellTrace>, Instant, f64) {
    let cache = ArtifactCache::new();
    let t0 = Instant::now();
    let traces = wb_harness::parallel_map_jobs(cells.iter().collect(), Some(jobs), |c: &Cell| {
        run_cell(c, &cache)
    });
    (traces, t0, t0.elapsed().as_secs_f64())
}

fn run_cell(cell: &Cell, cache: &ArtifactCache) -> CellTrace {
    let mut rec = Recorder::default();
    let mut counts = Counts::default();
    let mut built = None;
    let root = rec.open(ROOT);
    let outcome = match cell.target {
        Target::Wasm => wasm_cell(&mut rec, &mut counts, &mut built, &cell.run, cache),
        Target::Js => js_cell(&mut rec, &mut counts, &mut built, &cell.run, cache),
        Target::Native => native_cell(&mut rec, &mut counts, &cell.run, cache),
    };
    rec.close(root);
    CellTrace {
        outcome,
        spans: rec.spans,
        counts,
        built,
    }
}

/// Note a cache lookup's outcome on its span and in the counts.
fn note_lookup(rec: &mut Recorder, span: usize, counts: &mut Counts, hit: bool) {
    rec.spans[span].hit = Some(hit);
    if hit {
        counts.cache_hits += 1;
    } else {
        counts.cache_misses += 1;
        counts.compiles += 1;
    }
}

/// `Compiler::frontend` plus the optimization pipeline, one span per stage.
/// Each intermediate is dropped inside the stage that consumes it.
fn optimized(
    rec: &mut Recorder,
    run: &Run,
    defines: &[(String, String)],
    target: TargetKind,
) -> Result<HProgram, CompileError> {
    let defines: HashMap<String, String> = defines.iter().cloned().collect();
    let text = rec.time("minic.preprocess", || {
        wb_minic::preprocess(run.benchmark.source, &defines)
    })?;
    let tokens = rec.time("minic.lex", || {
        let tokens = wb_minic::lex(&text);
        drop(text);
        tokens
    })?;
    let unit = rec.time("minic.parse", || wb_minic::parse(tokens))?;
    let (unit, _report) = rec.time("minic.transform", || {
        let transformed = wb_minic::transform::transform_unit(&unit);
        drop(unit);
        transformed
    })?;
    let mut hir = rec.time("minic.sema", || {
        let hir = wb_minic::analyze(&unit);
        drop(unit);
        hir
    })?;
    rec.time("minic.passes", || run_pipeline(&mut hir, run.level, target));
    Ok(hir)
}

fn wasm_cell(
    rec: &mut Recorder,
    counts: &mut Counts,
    built: &mut Option<Built>,
    run: &Run,
    cache: &ArtifactCache,
) -> Outcome {
    let defines = run.benchmark.defines(run.size);
    let lookup = rec.open("core.cache");
    let key = ArtifactKey::compute(
        ArtifactKind::Wasm,
        run.benchmark.source,
        &defines,
        run.level,
        run.toolchain,
        WASM_HEAP,
        false,
    );
    let mut missed = false;
    let artifact = cache.wasm(key, || -> Result<CachedWasm, String> {
        missed = true;
        let hir = optimized(rec, run, &defines, TargetKind::Wasm).map_err(|e| e.to_string())?;
        let strings = hir.strings.clone();
        let opts = WasmEmitOptions {
            profile: CompilerProfile::of(run.toolchain),
            heap_limit_bytes: WASM_HEAP,
            remat_int_consts: run.level >= OptLevel::O2 && run.level != OptLevel::O0,
        };
        let module = rec
            .time("minic.emit_wasm", || {
                let module = emit_wasm(&hir, &opts);
                drop(hir);
                module
            })
            .map_err(|e| e.to_string())?;
        let bytes = rec.time("wasm.encode", || {
            let bytes = wb_wasm::encode_module(&module);
            drop(module);
            bytes
        });
        let module = rec
            .time("wasm.decode", || wb_wasm::decode_module(&bytes))
            .map_err(|e| format!("decode failed: {e}"))?;
        rec.time("wasm.validate", || wb_wasm::validate(&module))
            .map_err(|e| format!("validation failed: {e}"))?;
        let prepared = rec.time("wasm_vm.prepare", || Arc::new(PreparedModule::new(module)));
        Ok(CachedWasm {
            bytes,
            strings,
            prepared,
        })
    });
    rec.close(lookup);
    note_lookup(rec, lookup, counts, !missed);
    let artifact = artifact?;
    if missed {
        counts.wasm_bytes += artifact.bytes.len() as u64;
        *built = Some(Built::Wasm(Arc::clone(&artifact)));
    }

    let config = rec.time("env.profile", || {
        let profile = run.env.profile();
        let mut config = WasmVmConfig::for_env(&profile);
        config.tier_policy = run.tier_policy;
        config.reference_exec = run.reference_exec;
        config.exec_overhead = calibration::toolchain_exec_overhead(run.toolchain);
        config.limits = run.limits;
        config
    });
    let imports = standard_imports(artifact.strings.clone());
    let mut inst = rec
        .time("wasm_vm.instantiate", || {
            Instance::instantiate_prepared(
                Arc::clone(&artifact.prepared),
                artifact.bytes.len(),
                config,
                imports,
            )
        })
        .map_err(|t| format!("wasm trap: {t}"))?;
    let result = rec.time("wasm_vm.exec", || inst.invoke(ENTRY, &[]));
    let (report, memory_bytes) = rec.time("env.price", || {
        let report = inst.report();
        let memory = reported_wasm_memory(run.env, report.memory.linear_bytes);
        (report, memory)
    });
    result.map_err(|t| format!("wasm trap: {t}"))?;
    counts.wasm_ops += report.counts.total();
    counts.wasm_opt_ops += report.counts.total() - report.baseline_counts.total();
    counts.tier_ups += u64::from(report.tier_ups);
    counts.context_switches += report.context_switches;
    Ok(Measurement {
        time: report.total,
        clock: report.clock,
        memory_bytes,
        code_size: artifact.bytes.len() as u64,
        counts: report.counts,
        arith: report.arith,
        output: std::mem::take(&mut inst.output),
        context_switches: report.context_switches,
    })
}

fn js_cell(
    rec: &mut Recorder,
    counts: &mut Counts,
    built: &mut Option<Built>,
    run: &Run,
    cache: &ArtifactCache,
) -> Outcome {
    let defines = run.benchmark.defines(run.size);
    let lookup = rec.open("core.cache");
    let key = ArtifactKey::compute(
        ArtifactKind::Js,
        run.benchmark.source,
        &defines,
        run.level,
        run.toolchain,
        None,
        false,
    );
    let mut missed = false;
    let artifact = cache.js(key, || -> Result<CachedJs, String> {
        missed = true;
        let hir = optimized(rec, run, &defines, TargetKind::Js).map_err(|e| e.to_string())?;
        let source = rec
            .time("minic.emit_js", || {
                let source = emit_js_with(&hir, &JsEmitOptions { trap_checks: false });
                drop(hir);
                source
            })
            .map_err(|e| e.to_string())?;
        Ok(CachedJs { source })
    });
    rec.close(lookup);
    note_lookup(rec, lookup, counts, !missed);
    let artifact = artifact?;
    if missed {
        *built = Some(Built::Js(Arc::clone(&artifact)));
    }

    let (config, baseline_memory) = rec.time("env.profile", || {
        let profile = run.env.profile();
        let mut config = JsVmConfig::for_env(&profile);
        config.jit = run.jit;
        config.reference_exec = run.reference_exec;
        config.limits = run.limits;
        (config, profile.js.baseline_memory_bytes)
    });
    let mut vm = rec
        .time("jsvm.load", || {
            let mut vm = JsVm::new(config);
            vm.load(&artifact.source).map(|()| vm)
        })
        .map_err(|e| format!("js error: {e}"))?;
    let result = rec.time("jsvm.exec", || vm.call(ENTRY, &[]));
    let report = rec.time("env.price", || vm.report());
    result.map_err(|e| format!("js error: {e}"))?;
    let (ic_hits, ic_misses) = vm.ic_stats();
    counts.js_ops += report.counts.total();
    counts.ic_hits += ic_hits;
    counts.ic_misses += ic_misses;
    counts.jit_compiles += u64::from(report.jit_compiles);
    counts.gc_count += report.heap.gc_count;
    counts.allocs += report.heap.alloc_count;
    Ok(Measurement {
        time: report.total,
        clock: report.clock,
        memory_bytes: baseline_memory + report.heap.peak_live_bytes,
        code_size: artifact.source.len() as u64,
        counts: report.counts,
        arith: report.arith,
        output: std::mem::take(&mut vm.output),
        context_switches: 0,
    })
}

fn native_cell(
    rec: &mut Recorder,
    counts: &mut Counts,
    run: &Run,
    cache: &ArtifactCache,
) -> Outcome {
    let defines = run.benchmark.defines(run.size);
    let lookup = rec.open("core.cache");
    let key = ArtifactKey::compute(
        ArtifactKind::Native,
        run.benchmark.source,
        &defines,
        run.level,
        Toolchain::Cheerp,
        NATIVE_HEAP,
        false,
    );
    let mut missed = false;
    let artifact = cache.native(key, || -> Result<CachedNative, String> {
        missed = true;
        let hir = optimized(rec, run, &defines, TargetKind::Native).map_err(|e| e.to_string())?;
        let prog = rec.time("minic.emit_native", || NativeProgram::new(hir));
        Ok(CachedNative { prog })
    });
    rec.close(lookup);
    note_lookup(rec, lookup, counts, !missed);
    let artifact = artifact?;

    let out = rec
        .time("native.exec", || {
            artifact.prog.run_with_limits(ENTRY, &[], run.limits)
        })
        .map_err(|e| format!("native trap: {e}"))?;
    let clock = rec.time("env.price", || {
        let mut clock = VirtualClock::new();
        clock.advance(out.exec_time, TimeBucket::Exec);
        clock
    });
    counts.native_ops += out.counts.total();
    Ok(Measurement {
        time: out.exec_time,
        clock,
        memory_bytes: out.data_bytes,
        code_size: artifact.prog.code_size(),
        counts: out.counts,
        arith: ArithCounts::default(),
        output: out.output,
        context_switches: 0,
    })
}

/// The compiler a study cell's artifact comes from, configured through
/// the public `Compiler` builder.
fn compiler(run: &Run, heap: Option<u64>) -> Compiler {
    let mut c = Compiler::new(run.toolchain).opt_level(run.level);
    if let Some(h) = heap {
        c = c.heap_limit(h);
    }
    for (k, v) in run.benchmark.defines(run.size) {
        c = c.define(&k, v);
    }
    c
}

/// Check that every artifact built stage by stage equals what
/// `Compiler::compile_wasm` (encoded) / `Compiler::compile_js` emit.
/// Returns one line per difference.
pub fn compile_equivalence(cells: &[Cell], traces: &[CellTrace]) -> Vec<String> {
    let mut problems = Vec::new();
    for (cell, trace) in cells.iter().zip(traces) {
        let same = match &trace.built {
            None => continue,
            Some(Built::Wasm(a)) => compiler(&cell.run, WASM_HEAP)
                .compile_wasm(cell.run.benchmark.source)
                .map(|out| {
                    wb_wasm::encode_module(&out.module) == a.bytes && out.strings == a.strings
                }),
            Some(Built::Js(a)) => compiler(&cell.run, None)
                .trap_checks(false)
                .compile_js(cell.run.benchmark.source)
                .map(|out| out.source == a.source),
        };
        if !matches!(same, Ok(true)) {
            problems.push(format!(
                "{}: stage-by-stage artifact differs from Compiler's",
                cell.label()
            ));
        }
    }
    problems
}

/// Self time of each span: its duration minus the time its children cover.
/// Also checks that children nest inside their parent without overlapping,
/// so the self times of a cell sum to its root span exactly.
pub fn self_times(spans: &[Span]) -> Result<Vec<u128>, String> {
    let dur = |s: &Span| s.end.duration_since(s.start).as_nanos();
    let mut selfs: Vec<u128> = spans.iter().map(dur).collect();
    let mut last_child_end: Vec<Option<Instant>> = vec![None; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let Some(p) = s.parent else {
            if i != 0 {
                return Err(format!("span {} has no parent", s.name));
            }
            continue;
        };
        let parent = &spans[p];
        if s.start < parent.start || s.end > parent.end {
            return Err(format!("{} lies outside {}", s.name, parent.name));
        }
        if last_child_end[p].is_some_and(|end| s.start < end) {
            return Err(format!("{} overlaps a sibling", s.name));
        }
        last_child_end[p] = Some(s.end);
        selfs[p] = selfs[p]
            .checked_sub(dur(s))
            .ok_or_else(|| format!("children of {} exceed it", parent.name))?;
    }
    let total: u128 = selfs.iter().sum();
    if spans.first().map(dur) != Some(total) {
        return Err("self times do not sum to the cell's span".to_string());
    }
    Ok(selfs)
}

/// Self seconds summed per span name over all cells.
pub fn layer_seconds(traces: &[CellTrace]) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    for t in traces {
        for (span, ns) in t.spans.iter().zip(self_times(&t.spans)?) {
            *by_name.entry(span.name).or_default() += ns as f64 * 1e-9;
        }
    }
    Ok(by_name)
}

/// One JSON line per span: cell, name, start/end in ns since the pass
/// began, parent index within the cell, and the cache outcome.
pub fn spans_jsonl(cells: &[Cell], traces: &[CellTrace], origin: Instant) -> String {
    let mut out = String::new();
    for (cell, t) in cells.iter().zip(traces) {
        for s in &t.spans {
            let ns = |i: Instant| i.duration_since(origin).as_nanos();
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let hit = s.hit.map_or("null".to_string(), |h| h.to_string());
            out.push_str(&format!(
                "{{\"cell\":{},\"label\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"hit\":{hit}}}\n",
                cell.id,
                cell.label(),
                s.name,
                ns(s.start),
                ns(s.end)
            ));
        }
    }
    out
}
