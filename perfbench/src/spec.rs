//! The metrics and workloads the benchmark reports, and the
//! `BENCHMARK.json` that declares them (`perfbench --spec`).

use crate::workloads::Workload;

/// One reported metric.
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What `--trace 0` prints. Timed with tracing off; see `perfbench/NOTES.md`
/// for why each bound holds.
pub const END_TO_END: [Metric; 6] = [
    e2e("cells_per_s", "1/s", "higher", 0.25),
    e2e("cell_p50_ms", "ms", "lower", 0.25),
    e2e("cell_tail_ms", "ms", "lower", 0.25),
    e2e("cpu_ms_per_cell", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// What `--trace 1` prints: self time per stage summed over the workload,
/// and the counts each layer produced.
pub const PER_LAYER: [Metric; 43] = [
    layer("minic.preprocess_s", "s", "lower"),
    layer("minic.lex_s", "s", "lower"),
    layer("minic.parse_s", "s", "lower"),
    layer("minic.transform_s", "s", "lower"),
    layer("minic.sema_s", "s", "lower"),
    layer("minic.passes_s", "s", "lower"),
    layer("minic.emit_wasm_s", "s", "lower"),
    layer("minic.emit_js_s", "s", "lower"),
    layer("minic.emit_native_s", "s", "lower"),
    layer("minic.compiles", "count", "lower"),
    layer("wasm.encode_s", "s", "lower"),
    layer("wasm.decode_s", "s", "lower"),
    layer("wasm.validate_s", "s", "lower"),
    layer("wasm.bytes", "bytes", "lower"),
    layer("wasm_vm.prepare_s", "s", "lower"),
    layer("wasm_vm.instantiate_s", "s", "lower"),
    layer("wasm_vm.exec_s", "s", "lower"),
    layer("wasm_vm.ops", "count", "lower"),
    layer("wasm_vm.mops_per_s", "Mop/s", "higher"),
    layer("wasm_vm.tier_ups", "count", "lower"),
    layer("wasm_vm.opt_tier_share", "share", "higher"),
    layer("wasm_vm.context_switches", "count", "lower"),
    layer("jsvm.load_s", "s", "lower"),
    layer("jsvm.exec_s", "s", "lower"),
    layer("jsvm.ops", "count", "lower"),
    layer("jsvm.mops_per_s", "Mop/s", "higher"),
    layer("jsvm.ic_hit_ratio", "share", "higher"),
    layer("jsvm.jit_compiles", "count", "lower"),
    layer("jsvm.gc_count", "count", "lower"),
    layer("jsvm.allocs", "count", "lower"),
    layer("native.exec_s", "s", "lower"),
    layer("native.ops", "count", "lower"),
    layer("env.price_s", "s", "lower"),
    layer("env.profile_s", "s", "lower"),
    layer("core.cache_s", "s", "lower"),
    layer("core.cache_hit_ratio", "share", "higher"),
    layer("core.cache_misses", "count", "lower"),
    layer("harness.worker_idle_share", "share", "lower"),
    layer("harness.glue_s", "s", "lower"),
    layer("trace.compile_share", "share", "lower"),
    layer("trace.exec_share", "share", "higher"),
    layer("trace.host_s", "s", "lower"),
    layer("trace.overhead_s", "s", "lower"),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// Why each workload exists, one line each.
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::CompileXs => {
            "compile-bound kernels at XS, 7 -O levels x wasm/js/native: every cell a distinct artifact, so compiling dominates and the cache only misses"
        }
        Workload::ExecLarge => {
            "fig9 Chrome cells at L minus the 5 heaviest kernels, wasm and js at -O2: execution is about 98.5% of host time, so VM dispatch sets the pace"
        }
        Workload::EnvSweep => {
            "kernels at M in six environments x 3 wasm tiers + 2 JIT modes: 2 artifacts serve 30 cells, so the cache hits and pricing repeats"
        }
    }
}

/// The `BENCHMARK.json` text.
pub fn benchmark_json() -> String {
    let metric = |m: &Metric| match m.bound {
        Some(b) => format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {b}}}",
            m.name, m.unit, m.better
        ),
        None => format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        ),
    };
    let list = |ms: &[Metric]| ms.iter().map(metric).collect::<Vec<_>>().join(",\n");
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                why(*w)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(&END_TO_END),
        list(&PER_LAYER)
    )
}
